(** Dense complex matrices and LU solves, for AC (small-signal) circuit
    analysis.

    Mirrors {!Matrix}/{!Lu} over [Complex.t]; kept separate because the
    real-valued DC path should not pay for complex arithmetic. *)

type t

val create : int -> int -> t
(** Zero matrix. *)

val set : t -> int -> int -> Complex.t -> unit

val add_to : t -> int -> int -> Complex.t -> unit

val copy : t -> t

exception Singular of int

val solve : t -> Complex.t array -> Complex.t array
(** LU with partial pivoting (by modulus).  Raises {!Singular} or
    [Invalid_argument] (not square / dimension mismatch). *)
