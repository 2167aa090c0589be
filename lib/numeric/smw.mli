(** Sherman–Morrison–Woodbury rank-k re-solve.

    Given the responses of a factorised matrix [A] to a low-rank
    perturbation [A' = A + Σᵢ uᵢ·vᵢᵀ], solves [A' x = b] without
    refactorising:

    {v x = y − Z·(I + Vᵀ·Z)⁻¹·(Vᵀ·y),   y = A⁻¹b,  Z = A⁻¹U v}

    The caller supplies the response columns [Z] and the base solution
    [y], so it decides which solves against the existing factors happen
    and how often: a column that several systems share (the port
    response of a device that may move) is solved once and reused by all
    of them.  {!make} then costs a dense [k × k] factorisation plus
    [O(k²·nnz(V))], and {!update} [O(k·n)].  This is the kernel that lets
    the fault-injection FMEA reuse the golden factorisation: a failure
    mode changes a handful of MNA stamps, which is exactly a rank-1 or
    rank-2 update. *)

type sparse_vec = (int * float) array
(** A sparse column as (index, value) pairs. *)

val response :
  n:int -> solve:(float array -> float array) -> sparse_vec -> float array
(** [response ~n ~solve u] is [A⁻¹u] as a dense column of length [n],
    where [solve] applies [A⁻¹] (e.g. {!Sparse.solve_factored} partially
    applied to existing factors).  Duplicate indices in [u] sum. *)

type t

val make : z:float array array -> v:sparse_vec array -> t
(** [make ~z ~v] builds the correction for [A + Σ uᵢvᵢᵀ] from the
    response columns [z.(i) = A⁻¹uᵢ].  The columns are only read, never
    written, so they may be shared with other updates and across
    domains.  Raises {!Lu.Singular} when the capacitance matrix
    [I + VᵀZ] is singular — by the determinant lemma this means the
    updated matrix itself is singular (for nonsingular [A]).  Raises
    [Invalid_argument] when [z] and [v] differ in length. *)

val rank : t -> int

val update : t -> float array -> unit
(** [update t y] turns [y = A⁻¹b] into [x = (A + U·Vᵀ)⁻¹b] in place. *)
