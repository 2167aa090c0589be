(** Runtime monitor generation from SSAM models (the paper's future-work
    item VIII.4: "SSAM can also be converted into a dynamic model ...
    possible to generate facilities to receive runtime data for the
    component in a real time manner").

    Components declared [dynamic] contribute one check per IO node that
    carries limits; feeding observed values to the generated monitor
    yields violation events usable for runtime safety analysis. *)

type check = {
  check_component : string;
  check_node : string;  (** IO node id *)
  lower : float option;
  upper : float option;
}

type violation = {
  v_component : string;
  v_node : string;
  observed : float;
  bound : [ `Below of float | `Above of float ];
  at : float;  (** caller-supplied timestamp *)
}

type t

val generate_component : Ssam.Architecture.component -> t

val checks : t -> check list

val observe :
  t -> component:string -> node:string -> value:float -> at:float ->
  violation option
(** [None] when the value is in range or the node is unmonitored. *)

val observe_all :
  t -> at:float -> (string * string * float) list -> violation list
(** Batch form: [(component, node, value)] triples. *)

val pp_violation : Format.formatter -> violation -> unit
