(** Memory budgets for model stores.

    The paper's SAME inherits EMF's need to "load EMF models in their
    entirety before any queries can be performed", which overflowed the
    JVM heap at Set5 (Table VI).  A {!t} makes that failure mode explicit
    and testable: stores charge it per element and overflow
    deterministically instead of taking the machine down. *)

type t

exception Overflow of { requested : int; available : int }

val create : max_bytes:int -> t

val bytes_per_element : int
(** The accounting constant (96 bytes — a conservative estimate of an EMF
    EObject's footprint). *)

val charge_elements : t -> int -> unit
(** Raises {!Overflow} without charging when the allocation would exceed
    the budget. *)

val release_elements : t -> int -> unit
(** For stores that free per-window memory (the lazy store). *)

val used_bytes : t -> int

val max_bytes : t -> int
