(** Model drivers — SAME's counterpart of Epsilon's EMC layer.

    A driver knows how to load one external modelling technology and render
    it as an {!Mvalue.t}.  SSAM [ExternalReference]s name a driver through
    their [model_type] field; {!resolve} dispatches on it.

    The registry is process-global and mutable so that higher layers (e.g.
    the block-diagram library) can contribute drivers without this module
    depending on them. *)

type t = {
  driver_name : string;
  load : location:string -> metadata:(string * string) list -> Mvalue.t;
      (** Raises {!Load_error} wrapping underlying failures. *)
}

exception Load_error of { driver : string; location : string; message : string }

exception Unknown_driver of string

val register : t -> unit
(** Last registration for a name wins (case-insensitive). *)

val find : string -> t option

val resolve :
  model_type:string ->
  location:string ->
  metadata:(string * string) list ->
  Mvalue.t
(** Raises {!Unknown_driver} or {!Load_error}. *)
