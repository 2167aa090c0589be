(** Dense float vectors.

    Thin wrappers over [float array] used by the MNA solver in
    {!module:Circuit}.  All operations allocate fresh vectors unless the name
    ends in [_into]. *)

type t = float array

val create : int -> t
(** [create n] is the zero vector of dimension [n]. *)

val of_list : float list -> t

val dim : t -> int

val add : t -> t -> t
(** [add x y] is the element-wise sum.  Raises [Invalid_argument] on
    dimension mismatch. *)

val scale : float -> t -> t

val dot : t -> t -> float

val norm_inf : t -> float
(** Maximum absolute entry; 0 for the empty vector. *)

val norm2 : t -> float
(** Euclidean norm. *)

val max_abs_diff : t -> t -> float
(** [max_abs_diff x y] is [norm_inf (sub x y)] without the intermediate
    allocation. *)
