(** Sparse linear algebra for large MNA systems.

    The circuit simulator's matrices are overwhelmingly sparse — a
    two-terminal element touches at most four entries — so the dense
    O(n³) factorisation in {!Lu} would be almost entirely wasted work.  This module provides triplet assembly into
    CSR, a fill-reducing (minimum-degree) ordering, and a left-looking
    sparse LU with partial pivoting (Gilbert–Peierls).  Factors and
    orderings are first-class values so the fault-injection hot loop can
    reuse both across thousands of solves. *)

type triplets
(** Mutable triplet (COO) accumulator for an [n × n] matrix.  Duplicate
    entries sum on compression, matching the stamp semantics of MNA
    assembly. *)

val create : int -> triplets
(** [create n] is an empty accumulator for an [n × n] system.  Raises
    [Invalid_argument] on a negative dimension. *)

val add_to : triplets -> int -> int -> float -> unit
(** [add_to t i j v] accumulates [v] at [(i, j)].  Zero values are kept:
    they pin the position into the compressed pattern, which lets a
    caller reserve slots (e.g. diode companion stamps) whose values are
    filled in later via {!set_value}/{!add_to_value}. *)

val dim : triplets -> int

type t
(** A compressed sparse row (CSR) matrix with sorted column indices per
    row.  The value array is mutable (see {!set_value}); the pattern is
    not. *)

val compress : triplets -> t
(** Sum duplicates and build the CSR form.  O(nnz + n). *)

val n : t -> int
val nnz : t -> int

val get : t -> int -> int -> float
(** 0.0 for positions outside the pattern. *)

val index : t -> int -> int -> int option
(** Position of [(i, j)] in the value array, if present in the pattern.
    O(log row-length). *)

val set_value : t -> int -> float -> unit
val add_to_value : t -> int -> float -> unit

val copy : t -> t
(** Shares the (immutable) pattern, copies the values — the cheap way to
    restamp a few entries per Newton iteration. *)

val mul_vec : t -> float array -> float array

val min_degree_order : t -> int array
(** A fill-reducing column pre-ordering: minimum degree on the pattern
    of [A + Aᵀ].  [order.(k)] is the original column eliminated at step
    [k].  Computing the ordering is the expensive symbolic step; it
    depends only on the pattern, so it can be computed once and passed
    to every {!decompose} over matrices with the same pattern. *)

type factors
(** A sparse LU factorisation [P·A·Q = L·U] (partial-pivoting row
    permutation [P], fill-reducing column permutation [Q]). *)

val decompose : ?order:int array -> t -> factors
(** Factorise.  [order] defaults to {!min_degree_order}; pass a cached
    ordering to skip the symbolic analysis on repeated factorisations of
    the same pattern.  Raises {!Lu.Singular} with the original column
    index when no acceptable pivot exists for that column, and
    [Invalid_argument] if [order] has the wrong length. *)

val factor_order : factors -> int array
(** The column ordering actually used, for reuse. *)

val solve_factored : factors -> float array -> float array
(** O(nnz(L) + nnz(U)) per solve; the factors may be reused for any
    number of right-hand sides. *)

val solve : ?order:int array -> t -> float array -> float array
(** [decompose] + [solve_factored].  Raises as {!decompose}. *)
