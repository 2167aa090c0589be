(** The concrete propagation passes over a {!Model.t} — bitset-lattice
    instances of {!Fixpoint}.

    Two independent fixpoints compute the same (failure mode, output)
    relation from opposite directions:

    - {!forward_taint} pushes each node's own failure modes along the
      flow: [reach.(n)] = modes that can deviate node [n];
    - {!backward_reach} pulls observation points against the flow:
      [outs.(n)] = outputs a deviation originating at [n] can disturb.

    Mode [m] explains output [o] iff [m ∈ reach.(node o)] iff
    [o ∈ outs.(node m)] — {!agreement} cross-checks the two directions
    pair by pair, which is the internal differential oracle the DFA003
    lint rule and the bench section report on. *)

type solution = {
  sets : Graph.Bitset.t array;  (** one set per graph node *)
  stats : Fixpoint.stats;
}

val forward_taint : ?jobs:int -> Model.t -> solution
(** Forward pass; [sets.(n)] over the mode universe. *)

val backward_reach : ?jobs:int -> Model.t -> solution
(** Backward pass; [sets.(n)] over the output universe
    ({!Model.output_index} positions). *)

val backward_explains :
  Model.t -> solution -> output:string -> Model.mode list
(** Modes whose node co-reaches the named output — must equal the modes
    the forward solution carries to that output, as {!agreement} checks. *)

val agreement : Model.t -> forward:solution -> backward:solution -> bool * int
(** [(agree, pairs)]: whether the two directions induce the identical
    (mode, output) relation, and how many pairs were checked. *)

val latent_modes : Model.t -> forward:solution -> Model.mode list
(** Modes that reach no observation point at all. *)

val silent_outputs : Model.t -> forward:solution -> string list
(** Observation points no failure mode can deviate. *)

val coverage_gaps : Model.t -> forward:solution -> Model.mode list
(** Loss-like modes of non-redundant components that reach an
    observation point but are diagnosed by no safety mechanism. *)

val off_path_mechanisms :
  Model.t -> forward:solution -> (string * string * Model.mode) list
(** Placed mechanisms covering a mode that cannot reach their host:
    [(sm id, host component, mode)].  Architecture route only. *)

type integrity_finding = {
  if_component : string;
  allocated : Ssam.Requirement.integrity_level option;
  demanded : Ssam.Requirement.integrity_level;
  via_mode : Model.mode;  (** the cause whose hazard sets the demand *)
  hazard : string;  (** hazardous-situation id *)
}

val integrity_violations :
  ?jobs:int -> Ssam.Model.t -> Model.t -> integrity_finding list
(** Integrity propagation: every component reached by a failure mode
    citing a hazard demands at least that hazard's risk-graph level
    ({!Hara.Risk.of_situation}); components allocated below the maximum
    demand are reported (unallocated components are left to the SSAM
    pack).  One finding per component, keyed to the worst demand. *)
