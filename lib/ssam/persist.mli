(** XML persistence for SSAM models (the XMI-style storage format).

    The paper's SSAM models live as EMF/XMI resources; this module gives
    the OCaml SSAM the same capability: a stable XML schema covering every
    metamodel feature (all four packages, the Base utility elements,
    citations, constraints, external references) with a lossless
    round-trip — [of_string (to_string m) = m], property-tested.

    Files written by {!save} load in any XML tool; the ["ssam"] driver
    this module registers at library initialisation additionally exposes
    saved models to the query language for federation. *)

exception Corrupt of string
(** Raised by the readers on structurally valid XML that is not a valid
    SSAM serialisation (unknown kinds, missing required attributes,
    malformed numbers). *)

val to_string : Model.t -> string

val of_string : string -> Model.t
(** Raises {!Corrupt} or {!Modelio.Xml.Parse_error}. *)

val save : string -> Model.t -> unit

val load : string -> Model.t
(** Raises [Sys_error], {!Modelio.Xml.Parse_error} or {!Corrupt}. *)
