(** Automated FMEA by failure injection on circuit models (the paper's
    Sec. IV-D1 workflow for Simulink models).

    1. {b Initialise}: solve the golden netlist, record all sensor
       readings.
    2. {b Iterate}: for every element with a reliability entry and every
       failure mode, inject the fault, re-solve, and compare the sensor
       readings against the golden ones.
    3. {b Output}: a {!Table.t}; architecture metrics come from
       {!Metrics}.

    A failure mode is classified safety-related when at least one sensor
    reading moves by more than [threshold_rel] (relative to the golden
    value, with [threshold_abs] as a floor for near-zero readings).

    Runs that violate the supply-stability assumption — any element
    current exceeding [overcurrent_factor] times the golden run's maximum
    element current — are excluded with a warning: the paper's case study
    "assume[s] that DC1 is stable", and a shorted rail capacitor draws a
    non-physical source current (a current-limited or fused supply would
    shut down rather than deliver it), which is why the paper's Table IV
    lists no capacitor as safety-related. *)

type options = {
  threshold_rel : float;  (** default 0.2 (20 %) *)
  threshold_abs : float;  (** default 1e-9 *)
  exclude : string list;  (** element ids not injected (e.g. ["DC1"]) *)
  overcurrent_factor : float option;
      (** default [Some 8.0] — multiples of the golden maximum element
          current beyond which a run is excluded; [None] disables the
          check *)
  monitored_sensors : string list option;
      (** sensors whose readings constitute the safety observation
          ([None], the default, monitors all sensors).  Debug test points
          should not be listed: losing one is not a hazard. *)
}

val default_options : options

type element_types = (string * string) list
(** Element id → component type for reliability lookup (from
    {!Blockdiag.To_netlist}); elements not listed fall back to their
    {!Circuit.Element.kind_name}. *)

type solver = [ `Reuse | `Refactor ]
(** How faulted systems are solved.  [`Reuse] (the default) factorises
    the golden MNA system once and serves every injection as a low-rank
    (Sherman–Morrison–Woodbury) re-solve against those factors —
    {!Circuit.Dc.inject}.  [`Refactor] is the from-scratch baseline:
    each injection rewrites the netlist and runs a fresh
    {!Circuit.Dc.analyse}; kept for comparison benchmarks and as an
    escape hatch. *)

type solve_path = [ `Reused | `Rank_update of int | `Refactor ]
(** How one faulted solve was served, reported through [on_solved]:
    golden solution reused as-is, rank-[k] update against the golden
    factors, or a full refactorise. *)

exception Golden_run_failed of string
(** The un-faulted netlist itself does not solve. *)

type prepared
(** The golden run and its derived observables (max element current,
    monitored sensor readings, and — under [`Reuse] — the golden MNA
    factorisation), computed once by {!prepare} and shared by any number
    of {!classify_prepared} calls. *)

val prepare : ?options:options -> ?solver:solver -> Circuit.Netlist.t -> prepared
(** Solves the golden netlist; raises {!Golden_run_failed} if it does not
    converge.  The result is immutable and safe to share across
    domains. *)

val classify_prepared :
  ?on_solved:(solve_path -> unit) ->
  prepared ->
  element_id:string ->
  Circuit.Fault.t ->
  [ `Safety_related of string  (** worst offending sensor *)
  | `No_effect
  | `Excluded of string  (** plausibility/assumption violation *)
  | `Simulation_failed of string ]
(** One injection against a shared golden run — the paper's "delve into a
    component" workflow without re-solving the golden netlist each
    time. *)

val classify_single :
  ?options:options ->
  ?solver:solver ->
  Circuit.Netlist.t ->
  element_id:string ->
  Circuit.Fault.t ->
  [ `Safety_related of string
  | `No_effect
  | `Excluded of string
  | `Simulation_failed of string ]
(** [classify_prepared (prepare netlist)] — convenience for one-off
    classifications; repeated calls should {!prepare} once instead. *)

type injection = string * float * Reliability.Reliability_model.failure_mode
(** One planned fault injection: element id, component FIT and the
    failure mode to inject. *)

val enumerate :
  ?options:options ->
  ?element_types:element_types ->
  Circuit.Netlist.t ->
  Reliability.Reliability_model.t ->
  injection list
(** The (element, failure-mode) pairs {!analyse} would classify, in row
    order: every non-excluded element with a reliability entry crossed
    with its failure modes.  Pure and cheap — exposed so the batch-fleet
    driver can flatten several variants' injections into one pool
    batch. *)

val injection_row :
  ?reuse:(component:string -> failure_mode:string -> Table.row option) ->
  ?on_classified:(unit -> unit) ->
  ?on_solved:(solve_path -> unit) ->
  prepared ->
  injection ->
  Table.row
(** Classify one enumerated injection against a shared golden run and
    render its table row — exactly what {!analyse} does per task.  Safe
    to call from pool domains (the hooks must be thread-safe, as under
    {!analyse}). *)

val cost_key : string
(** The {!Exec.Cost} workload key under which injection classifications
    are scheduled ("fmea.injection"). *)

val analyse :
  ?options:options ->
  ?element_types:element_types ->
  ?solver:solver ->
  ?prepared:prepared ->
  ?reuse:(component:string -> failure_mode:string -> Table.row option) ->
  ?on_classified:(unit -> unit) ->
  ?on_solved:(solve_path -> unit) ->
  Circuit.Netlist.t ->
  Reliability.Reliability_model.t ->
  Table.t
(** The injections are independent, so they are classified in parallel on
    the {!Exec} domain pool ([SAME_JOBS] workers): the golden solution is
    computed once and shared read-only; each (element, failure-mode)
    injection is solved on its own task.  Row order — and every value in
    every row — is identical to the sequential ([SAME_JOBS=1]) run.

    The optional hooks serve the incremental engine
    ([Engine.Pipeline]):

    - [prepared] supplies a cached golden run instead of re-solving; it
      {e must} come from {!prepare} on the same netlist and options.
    - [reuse] is consulted before each injection; returning [Some row]
      emits that row verbatim and skips the faulted solve.  The caller
      is responsible for only reusing rows that are bit-identical to
      what recomputation would produce.  Called from pool domains —
      must be thread-safe.
    - [on_classified] fires once per row actually classified by fault
      injection (not for reused rows, nor for failure modes without a
      fault model).  Called from pool domains — must be thread-safe.
    - [on_solved] fires once per faulted solve with the path that served
      it (reused / rank-k update / full refactorise), for the engine's
      solver statistics.  Called from pool domains — must be
      thread-safe. *)
