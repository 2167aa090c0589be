(** Dense fixed-size bitsets over [0 .. n-1], packed 63 bits per word.

    The reachability and dominator kernels mark node sets constantly;
    a [bool array] costs 8 bytes per node and a [Hashtbl] far more.
    These sets cost one word per 63 nodes and support the constant-time
    membership plus word-at-a-time union the BFS sweeps need. *)

type t

val create : int -> t
(** All-clear set over a universe of the given size. *)

val length : t -> int
(** Universe size (the [n] passed to {!create}). *)

val mem : t -> int -> bool

val add : t -> int -> unit

val remove : t -> int -> unit

val popcount : int -> int
(** Set bits in one word, all 63 counted ([popcount (-1) = 63]): a
    table-free SWAR count, shared with the Monte-Carlo kernel's
    per-word hit counts. *)

val cardinal : t -> int
(** Population count, O(words). *)

val union_into : into:t -> t -> bool
(** [union_into ~into s] ors [s] into [into]; returns [true] iff [into]
    changed.  Universes must match. *)

val subset : t -> t -> bool
(** [subset a b] — every member of [a] is in [b], word-at-a-time.  The
    partial order the dataflow fixpoint's convergence test uses.
    Universes must match. *)

val equal : t -> t -> bool
(** Same universe and same members. *)

val iter : (int -> unit) -> t -> unit
(** Members in increasing order. *)

val to_list : t -> int list
(** Members in increasing order. *)

val copy : t -> t
