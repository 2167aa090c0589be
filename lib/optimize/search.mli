(** Safety-mechanism deployment search (DECISIVE Step 4b).

    "The users may ... let SAME determine the solution for the target
    safety level and costs.  If there are multiple options available, the
    users may ... ask SAME to search for the pareto front of viable
    solutions."

    A candidate solution is a set of deployments — at most one mechanism
    per safety-related (component, failure-mode) row.  Its quality is the
    SPFM of the FMEDA after applying it; its cost is the summed mechanism
    cost. *)

type candidate = {
  deployments : Fmea.Fmeda.deployment list;
  spfm_pct : float;
  cost : float;
}
[@@deriving eq, show]

type slot = {
  slot_component : string;
  slot_failure_mode : string;
  slot_options : Reliability.Sm_model.mechanism list;
      (** applicable mechanisms, descending coverage; the empty deployment
          is always also an option *)
}

val slots :
  ?component_types:(string * string) list ->
  Fmea.Table.t ->
  Reliability.Sm_model.t ->
  slot list
(** One slot per safety-related row with at least one applicable
    mechanism. *)

val evaluate : Fmea.Table.t -> Fmea.Fmeda.deployment list -> candidate
(** The reference scorer: [Fmeda.apply] over the full table, then
    {!Fmea.Metrics.spfm}.  O(rows x deployments) per call — the oracle
    the faster scorers are tested against. *)

type evaluator
(** Precomputed scoring state for one FMEA table: per-row failure-rate
    shares and per-component single-point sums.  Immutable — safe to
    share across the pool's domains. *)

val make_evaluator : Fmea.Table.t -> evaluator

val evaluate_with : evaluator -> Fmea.Fmeda.deployment list -> candidate
(** Scores one deployment set: only the components it touches are
    re-summed; untouched components reuse their precomputed single-point
    total.  Floating-point folds replay {!Fmea.Metrics.compute}'s exact
    order, so the candidate is bit-identical to {!evaluate} on the same
    table and deployments.  Serves {!greedy} and one-off scoring;
    {!exhaustive_fold} scores along its counter instead. *)

val exhaustive_fold :
  ?component_types:(string * string) list ->
  ?max_combinations:int ->
  ?window:int ->
  ?evaluator:evaluator ->
  Fmea.Table.t ->
  Reliability.Sm_model.t ->
  init:'acc ->
  f:('acc -> candidate -> 'acc) ->
  'acc
(** Streaming exhaustive enumeration: fold [f] over every combination of
    per-slot choices (including "deploy nothing") {e without}
    materialising the combination list.  The space is walked as a
    mixed-radix counter (first slot most significant, digit 0 = no
    deployment), which reproduces the historical list order candidate
    for candidate — all downstream tie-breaks are bit-identical.

    Cost model.  Row-to-slot matching is resolved once per fold.  Each
    window of [window] consecutive candidates (default 8_192; values
    below 1 count as 1) is one pool task: it seeds its state with one
    full fold at its first counter value, then steps the counter.  A
    step whose lowest changed digit is slot [p] re-folds only the
    components whose rows slots [p..] match, then the cost and
    single-point prefixes after them.  A counter step changes fewer
    than two digits on average, so the re-fold is amortised O(1) per
    candidate in the slot count; building the candidate's deployment
    list is O(slots).  Every [spfm_pct] and [cost] is bit-identical to
    {!evaluate}.  A round holds one window per pool worker and rounds
    are folded sequentially in counter order, so results are identical
    at every job count and peak memory is O(jobs x window + slots)
    whatever the combination count.  Raises [Invalid_argument] if the
    count exceeds [max_combinations] (default 2_000_000 — 10x the
    list-based cap, affordable because nothing is retained). *)

val exhaustive :
  ?component_types:(string * string) list ->
  ?max_combinations:int ->
  ?evaluator:evaluator ->
  Fmea.Table.t ->
  Reliability.Sm_model.t ->
  candidate list
(** {!exhaustive_fold} accumulated into a list.  Raises
    [Invalid_argument] if the combination count exceeds
    [max_combinations] (default 200_000, the historical list-based cap)
    — use {!greedy} or {!exhaustive_fold} then.  The returned list
    (order and every value) is identical to a sequential run of the old
    recursive expansion. *)

val greedy :
  ?component_types:(string * string) list ->
  ?evaluator:evaluator ->
  target:Ssam.Requirement.integrity_level ->
  Fmea.Table.t ->
  Reliability.Sm_model.t ->
  candidate
(** Baseline strategy (what a manual engineer approximates, and the
    comparison point for the benches): repeatedly deploy the mechanism
    with the best residual-FIT-reduction per cost until the target SPFM is
    met or no mechanism helps. *)

val pareto_front : candidate list -> candidate list
(** Non-dominated candidates (maximise SPFM, minimise cost), sorted by
    ascending cost.  Deterministic: among equal (spfm, cost) the first
    candidate wins. *)

val cheapest_meeting :
  target:Ssam.Requirement.integrity_level -> candidate list -> candidate option
(** Cheapest candidate meeting the SPFM target; ties broken by higher
    SPFM. *)

val optimise :
  ?component_types:(string * string) list ->
  ?evaluator:evaluator ->
  target:Ssam.Requirement.integrity_level ->
  Fmea.Table.t ->
  Reliability.Sm_model.t ->
  candidate option * candidate list
(** SAME's end-to-end Step 4b: exhaustive search when feasible (falling
    back to greedy), returning the chosen solution and the Pareto front.
    Runs on {!exhaustive_fold} with an online cheapest/Pareto
    accumulator, so design spaces up to ~2 million combinations are
    searched exactly at flat memory; the result equals
    [cheapest_meeting ~target (exhaustive ...), pareto_front
    (exhaustive ...)] wherever the list-based search could run at all.

    [evaluator] (here and in {!exhaustive}/{!greedy}) supplies a
    prebuilt scorer for [table] — the incremental engine memoises it by
    table fingerprint so warm re-runs skip {!make_evaluator}.  It {e
    must} come from {!make_evaluator} on the same table. *)
