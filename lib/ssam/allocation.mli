(** Safety-requirement allocation and traceability checking.

    "Safety concepts include all relevant safety requirements and their
    allocation to functions and components" (Sec. II-A).  Allocations are
    recorded as [Allocates] trace links in an MBSA package; this module
    creates them and checks the properties a safety concept must have:

    - {b completeness}: every safety requirement is allocated to at least
      one component;
    - {b integrity sufficiency}: an allocated component's integrity level
      is at least the requirement's (ASIL decomposition is out of scope —
      a requirement allocated to a weaker component is reported);
    - {b no dangling links}: both endpoints of every allocation resolve. *)

val allocate :
  requirement:Base.id -> component:Base.id -> Mbsa.trace_link
(** An [Allocates] link with a deterministic id
    (["alloc:<req>-><comp>"]). *)

type violation =
  | Unallocated of Base.id  (** safety requirement with no allocation *)
  | Insufficient_integrity of {
      requirement : Base.id;
      required : Requirement.integrity_level;
      component : Base.id;
      actual : Requirement.integrity_level option;
    }
  | Dangling of { link : Base.id; missing : Base.id }
  | Not_a_requirement of { link : Base.id; id : Base.id }
  | Not_a_component of { link : Base.id; id : Base.id }

val check : Model.t -> Mbsa.package -> violation list
(** Checks every [Allocates] trace of the package against the model. *)

val is_complete : Model.t -> Mbsa.package -> bool

type matrix_row = {
  requirement_id : Base.id;
  requirement_text : string;
  integrity : Requirement.integrity_level option;
  allocated_to : Base.id list;
}

val matrix : Model.t -> Mbsa.package -> matrix_row list
(** The traceability matrix: one row per safety requirement in the model,
    in declaration order. *)

val auto_allocate :
  Model.t -> Mbsa.package -> Mbsa.package
(** Heuristic completion: every unallocated safety requirement citing a
    hazardous situation gets allocated to each component that has a
    failure mode linked to that hazard — the hazard chain the SSAM Base
    citations encode.  Requirements without such a chain stay
    unallocated (and keep showing up in {!check}). *)
