(** Backward-diagnosis explanations combined directly — explicit pair
    enumeration plus {!Fta.Cut_sets.minimize} — the reference for the
    BDD route {!Dataflow.Diagnose.diagnose} reads [singles]/[doubles]
    off.

    Surviving (not refuted) loss-like modes of non-redundant components
    are single points; loss-like modes of two distinct redundant
    components form a double. *)

val of_explanations :
  Dataflow.Model.t ->
  Dataflow.Diagnose.explanation list ->
  string list list * string list list
(** [(singles, doubles)]: the minimal sets of size one and two. *)
