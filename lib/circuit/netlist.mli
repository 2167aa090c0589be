(** Netlists: named collections of circuit elements.

    The ground node is ["gnd"] (aliases ["0"] and ["GND"] are
    normalised).  Element ids are unique within a netlist. *)

type t

val ground : string
(** ["gnd"]. *)

val empty : string -> t
(** [empty name]. *)

val name : t -> string

val add : t -> Element.t -> t
(** Raises [Invalid_argument] on a duplicate element id. *)

val of_elements : string -> Element.t list -> t
(** [List.fold_left add (empty name)], with one hashtable probe per
    element for the duplicate check instead of a scan.  Raises
    [Invalid_argument] on a duplicate element id, as {!add}. *)

val elements : t -> Element.t list
(** In insertion order. *)

val find : t -> string -> Element.t option

val replace : t -> string -> Element.kind -> t
(** [replace nl id kind] swaps the element's kind, keeping its nodes.
    Raises [Not_found] for an unknown id. *)

val remove : t -> string -> t
(** Raises [Not_found] for an unknown id. *)

val nodes : t -> string list
(** All distinct node names, ground excluded, sorted. *)

val element_count : t -> int

val validate : t -> string list
(** Human-readable problems: floating nodes, dangling sensor references —
    empty when the netlist is analysable. *)
