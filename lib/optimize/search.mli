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
    the searches' incremental scoring is tested against. *)

val exhaustive_fold :
  ?component_types:(string * string) list ->
  ?max_combinations:int ->
  ?window:int ->
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
  target:Ssam.Requirement.integrity_level ->
  Fmea.Table.t ->
  Reliability.Sm_model.t ->
  candidate
(** Baseline strategy (what a manual engineer approximates, and the
    comparison point for the benches): repeatedly deploy the mechanism
    with the best residual-FIT-reduction per cost until the target SPFM is
    met or no mechanism helps.

    A move deploys an option on an empty slot or replaces the one a
    slot holds; slots whose names are equal hold one deployment, found
    by exact name.  A move scores its SPFM gain per added cost (the cost
    delta for a replacement, floored at 0.01); the first best move in
    slot and option order applies, and the deployment list keeps the
    newest move first.

    Cost model.  The moves are scored in sequence on the counter scan of
    {!exhaustive_fold}, built once per call: a move sets one digit,
    re-folds the components whose rows that slot matches and the cost
    and single-point prefixes after them (O(slots + components) plus
    those rows), and sets the digit back.  A round scores every option
    of every slot but one equal to the mechanism the slot holds.  The
    result is bit for bit that of the list-based greedy that scores each
    move with {!evaluate}, wherever no coverage is NaN. *)

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
  ?on_scored:(scored:int -> pruned:int -> unit) ->
  target:Ssam.Requirement.integrity_level ->
  Fmea.Table.t ->
  Reliability.Sm_model.t ->
  candidate option * candidate list
(** SAME's end-to-end Step 4b: exhaustive search when feasible (falling
    back to {!greedy} beyond 2 million combinations), returning the
    chosen solution and the Pareto front.  The result equals
    [cheapest_meeting ~target l, pareto_front l] for [l] the list
    {!exhaustive_fold} yields, bit for bit and at every job count,
    wherever that list could be built at all; memory stays flat.

    It scores first and builds a candidate only when it can win.  Each
    window of the counter starts from the cheapest meeting candidate and
    the front as they stood when its round began, updates its own copy
    of both with each candidate it keeps, and keeps a candidate only
    when it beats that best or that front does not dominate it.  The
    kept ones, in counter order, are then decoded into deployment lists
    and folded into the result by the same rules as
    {!cheapest_meeting} and {!pareto_front}.

    Before scoring the counter value where a subtree starts (digits
    [f..] free, all 0 there), a window bounds the subtree: its least
    cost is the prefix cost plus each free slot's cheapest option when
    negative; its greatest SPFM folds, in {!Fmea.Metrics.compute}'s
    order, each row's single-point FIT at the fixed digits or the least
    any free matching option leaves, whichever is lower.  Round-to-nearest
    addition, multiplication and division are monotone, so the two bound
    every candidate of the subtree as its floats come out.  The subtree
    is skipped when a front entry costs at most the least cost and
    reaches the greatest SPFM, and the greatest SPFM misses the target or
    the best costs less than the least cost (or as much, with at least
    the greatest SPFM).  Every candidate skipped or dropped is then
    dominated by an earlier candidate and cannot beat an earlier meeting
    one, so it would not have changed the result; survivors keep their
    counter order, so every tie-break is the same.  When some FIT or
    cost is not finite nothing is skipped or dropped.

    [on_scored] receives, once the search is done, the candidates
    scored and the subtrees skipped.  The counts depend on the job count
    (windows of one round do not see each other's survivors), the result
    does not.  On the greedy fallback they are the moves {!greedy}
    scored and 0. *)
