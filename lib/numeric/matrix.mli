(** Dense row-major float matrices.

    For the small dense systems ({!Lu}, the transient engine's companion
    systems); MNA DC solves use {!Sparse}.  Mutation is exposed because
    the transient assembler stamps element contributions in place. *)

type t

val create : int -> int -> t
(** [create rows cols] is the zero matrix. *)

val identity : int -> t

val of_rows : float list list -> t
(** Raises [Invalid_argument] if the rows are ragged or empty. *)

val rows : t -> int

val cols : t -> int

val get : t -> int -> int -> float

val set : t -> int -> int -> float -> unit

val add_to : t -> int -> int -> float -> unit
(** [add_to m i j v] adds [v] to entry [(i, j)] — the MNA "stamp". *)

val copy : t -> t

val transpose : t -> t

val mul : t -> t -> t
(** Matrix product.  Raises [Invalid_argument] on inner-dimension
    mismatch. *)

val mul_vec : t -> Vector.t -> Vector.t

val equal : ?eps:float -> t -> t -> bool
(** Entry-wise comparison with absolute tolerance [eps] (default 1e-12). *)
