(** Backward failure-mode diagnosis — "which component failures explain
    the deviation I observed at this output?" — the inverse of the
    injection FMEA's forward question.

    The backward pass proposes the structural candidates (every failure
    mode whose node co-reaches the output); when the model came from a
    circuit diagram each candidate is then {e verified} by one numeric
    fault injection against a shared golden run
    ({!Fmea.Injection_fmea.classify_prepared} with the diagnosed output
    as the only monitored sensor).  A numeric effect implies a
    structural path, so the confirmed set equals the safety-related
    rows of the forward injection FMEA on the same monitored output —
    the differential oracle the tests pin down.

    Minimal explanations: structural single points (non-redundant
    components) become singleton cut sets; loss-like modes of redundant
    components pair up into double-point candidates; both are read off
    the decision diagram of the lowered tree as the minimal critical
    sets of size at most two ({!Fta.Bdd.minimal_critical_sets}). *)

type verdict =
  | Structural  (** no numeric model available; candidate stands *)
  | Confirmed of string  (** worst offending sensor of the injection *)
  | Refuted of string  (** why the injection showed no deviation *)

type explanation = { mode : Model.mode; verdict : verdict }

type report = {
  r_output : string;
  candidates : explanation list;  (** all structural candidates, verdicted *)
  explanations : explanation list;  (** the surviving ones *)
  singles : string list list;  (** minimal single-point cut sets (mode keys) *)
  doubles : string list list;  (** minimal double-point cut sets *)
  agree : bool;  (** forward/backward differential oracle *)
  agreement_pairs : int;
  stats : Fixpoint.stats;  (** both fixpoints combined *)
}

type verifier = Model.mode -> [ `Confirmed of string | `Refuted of string ]

val diagnose :
  ?jobs:int ->
  ?verify:verifier ->
  Model.t ->
  output:string ->
  (report, string) result
(** Runs both fixpoints, collects the backward candidates for [output]
    and verifies them (through {!Exec.scheduled_map} under
    ["dataflow.verify"]) when a verifier is supplied.  [Error] when the
    output id names no observation point. *)

val lowered_fault_tree :
  Model.t -> explanation list -> Fta.Fault_tree.t option
(** The surviving explanations as a fault tree over mode keys:
    non-redundant loss-like modes are direct disjuncts; redundant
    components become per-component OR gates under a 2-out-of-N vote.
    [None] when nothing survives.  {!diagnose} reads [singles]/[doubles]
    off this tree's {!Fta.Bdd} as the cardinality-1/2 minimal critical
    sets. *)

val circuit_verifier :
  ?options:Fmea.Injection_fmea.options ->
  reliability:Reliability.Reliability_model.t ->
  output:string ->
  Blockdiag.Diagram.t ->
  (verifier, string) result
(** Builds the numeric verifier for a circuit diagram: extracts the
    netlist, solves the golden run once with [output] as the only
    monitored sensor, and classifies each candidate with one low-rank
    re-solve.  [Error] when the golden run fails or the output is not a
    sensed element of the netlist. *)

val to_text : report -> string

val to_json : report -> Modelio.Json.t

val to_sarif : report -> Modelio.Json.t
(** SARIF 2.1.0; rules [DIAG001] (single-point explanation), [DIAG002]
    (double-point pair), [DIAG003] (refuted candidate, note level). *)
