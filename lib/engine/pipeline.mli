(** The staged incremental analysis pipeline.

    One pipeline value owns a {!Cache}, a {!Stats} block and the live
    (in-memory-only, {!live_cap}-bounded) memo of what the marshalled
    cache cannot hold (golden circuit runs).  Every analysis
    entry point routed through it behaves exactly like its cold
    counterpart — cached results are bit-identical, a property the test
    suite checks with the same discipline as the [SAME_JOBS] determinism
    tests — but re-running an analysis whose input fingerprints are
    unchanged costs a lookup, and re-running after a {e component-level}
    edit costs only the impacted subset:

    - {!injection_fmea} caches whole tables by input fingerprint, caches
      the golden run by (netlist, options) fingerprint, and — given the
      {!previous} iteration's artefacts — re-classifies only rows whose
      component falls in the [Ssam.Diff.impacted_components] closure
      (or whose reliability entry moved beyond its FIT); every other row
      is taken from the previous table, verbatim or re-priced at a new
      FIT.
    - {!path_fmea} / {!path_fmea_package} reuse the path sets of
      untouched components/packages via their subtree fingerprints.
    - {!optimise} caches search results by (table, catalogue, target).
    - {!evaluate_case} re-evaluates only claims whose cited artefact
      fingerprints moved ({!Fingerprint.artifact} covers the evidence
      file's content).

    Thread-safety: a pipeline may be shared; its memos are mutex-guarded
    and its stats atomic. *)

type t

val create : ?cache:Cache.t -> unit -> t
(** A fresh pipeline; [cache] defaults to a memory-only {!Cache}. *)

val cache : t -> Cache.t

val stats : t -> Stats.t

val snapshot : t -> Stats.snapshot

val live_cap : int
(** The most golden runs a pipeline holds in memory at once; the least
    recently used is evicted first.  An evicted golden run is recomputed
    (one more golden solve) when its circuit comes back. *)

val golden_runs_held : t -> int
(** Golden runs currently held, at most {!live_cap}. *)

(** {1 Generic memoisation} *)

val memo :
  t -> stage:string -> ?version:int -> key:Fingerprint.t -> (unit -> 'a) -> 'a
(** [memo t ~stage ~key f] returns the cached artefact for
    [(stage, version, key)] or computes, stores and returns [f ()].

    Artefacts cross the cache as [Marshal] bytes, so ['a] must be
    marshallable (no closures, no abstract handles) and — the {e typed
    cache} discipline — a given [stage] string must always be used at a
    single type, with [version] (default 1) bumped on any change to that
    type or to [f]'s semantics.  Corrupt or unreadable entries fall back
    to recomputation. *)

(** {1 Memoised conversions} *)

val convert : t -> Blockdiag.Diagram.t -> Blockdiag.To_netlist.result
(** {!Blockdiag.To_netlist.convert}, memoised by the diagram's identity:
    every analysis of one diagram value through this pipeline shares one
    conversion. *)

val structure_fingerprint : t -> Blockdiag.Diagram.t -> Fingerprint.t
(** {!Fingerprint.netlist_structure} of the diagram's {!convert}ed
    netlist (element list only, name ignored), memoised likewise: equal
    values mean one golden factorisation serves both designs. *)

(** {1 Incremental FMEA} *)

type previous = {
  prev_diagram : Blockdiag.Diagram.t;
  prev_reliability : Reliability.Reliability_model.t;
  prev_table : Fmea.Table.t;
      (** must be the analysis result of [prev_diagram]/[prev_reliability]
          under the {e same} options as the new run *)
}
(** The artefacts of the previous DECISIVE iteration, enabling
    diff-driven row reuse. *)

val injection_fmea :
  t ->
  ?previous:previous ->
  options:Fmea.Injection_fmea.options ->
  Blockdiag.Diagram.t ->
  Reliability.Reliability_model.t ->
  Fmea.Table.t
(** Step 4a by fault injection, incrementally.  Row reuse from
    [previous] requires both of: the extracted netlist fingerprint is
    unchanged (any electrical edit invalidates every classification —
    the golden run itself moved), and the row's component is {e not} in
    the [Ssam.Diff.impacted_components] closure of the model diff.  The
    reliability entry for the component's type then decides, once per
    type:
    - unchanged: the previous row is reused verbatim;
    - only [fit] differs: the previous row is rebuilt with
      {!Fmea.Table.make_row} at the new FIT, its classification kept.
      It is bit-identical to a recomputed row, since classification
      never reads the FIT; no faulted solve runs;
    - anything else differs: the row is re-solved.
    Rows served either way count in {!Stats.snapshot}'s [rows_reused].
    Raises {!Fmea.Injection_fmea.Golden_run_failed} like the cold path,
    and what {!Blockdiag.To_netlist.convert} raises on the diagram. *)

val injection_fmea_fleet :
  t ->
  options:Fmea.Injection_fmea.options ->
  (string * Blockdiag.Diagram.t) list ->
  Reliability.Reliability_model.t ->
  (string * Fmea.Table.t) list
(** Batch-fleet FMEA: analyse N labelled design variants with one warm
    engine.  Per-variant results (returned in input order, each
    bit-identical to {!injection_fmea} on that variant alone) come from
    the content-addressed cache when available; the remaining variants
    share golden factorisations by {e structural} netlist fingerprint —
    variants with element-for-element equal circuits cost one golden
    solve between them — and all of their injections are flattened into
    a single scheduled pool batch instead of N small barriers.  Each
    computed table is stored under the same cache key
    {!injection_fmea} uses, so fleet and single-variant runs feed each
    other. *)

(** {1 Scheduler-calibration persistence} *)

val load_cost_state : t -> bool
(** Restore the {!Exec.Cost} state (measured dispatch overhead +
    per-kernel cost estimates) persisted in this pipeline's cache, if
    any; [true] on success.  Runs automatically in {!create}. *)

val save_cost_state : t -> unit
(** Persist the current {!Exec.Cost} state through the cache (keyed by
    core count — calibration is machine-specific), so the next session
    starts with a calibrated scheduler. *)

val path_fmea :
  t -> options:Fmea.Path_fmea.options -> Ssam.Architecture.component ->
  Fmea.Table.t
(** Algorithm 1 on one composite, cached by its subtree fingerprint. *)

val path_fmea_package :
  t -> options:Fmea.Path_fmea.options -> Ssam.Architecture.package ->
  Fmea.Table.t
(** {!Fmea.Path_fmea.analyse_package} with each top-level composite
    cached independently — editing one package component re-runs only
    that package's path enumeration. *)

val optimise :
  t ->
  ?component_types:(string * string) list ->
  target:Ssam.Requirement.integrity_level ->
  Fmea.Table.t ->
  Reliability.Sm_model.t ->
  Optimize.Search.candidate option * Optimize.Search.candidate list
(** Step 4b search, cached.  A search that runs adds the combinations
    (or greedy moves) it scored and the subtrees it skipped to the stats
    ({!Stats.add_search}). *)

val evaluate_case : t -> Assurance.Sacm.case -> Assurance.Eval.report
(** Assurance-case evaluation with per-claim memoisation: a solution's
    artifact is re-evaluated only when its fingerprint (query, driver,
    location, file content) moved. *)
