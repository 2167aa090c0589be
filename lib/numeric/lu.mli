(** Dense LU decomposition with partial pivoting, and linear solves.

    Used for the small dense systems of the circuit simulator: the
    Sherman–Morrison–Woodbury capacitance matrix ({!Smw}) and the
    transient engine's companion systems.  DC operating points go through
    {!Sparse}. *)

exception Singular of int
(** Raised when elimination finds no usable pivot for the given column
    (the original, unpermuted column index — dense LU never permutes
    columns, {!Sparse.decompose} does).  For the circuit simulator this
    typically means a floating node (a node with no DC path to ground),
    which failure injection can create. *)

type factors
(** An LU factorisation of a square matrix, with the row permutation. *)

val decompose : Matrix.t -> factors
(** Raises [Singular] if the matrix is (numerically) singular and
    [Invalid_argument] if it is not square. *)

val solve_factored : factors -> Vector.t -> Vector.t

val solve : Matrix.t -> Vector.t -> Vector.t
(** [solve a b] solves [a x = b].  Raises [Singular] / [Invalid_argument]
    as {!decompose}. *)

val det : Matrix.t -> float
(** Determinant via LU; 0 if singular. *)

val inverse : Matrix.t -> Matrix.t
(** Raises [Singular] on singular input. *)
