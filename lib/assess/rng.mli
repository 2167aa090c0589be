(** Deterministic pseudo-random numbers for the Monte-Carlo sampler
    ({!Mc}) and the bench's simulated analyst.

    SplitMix64: every experiment seeds its own generator, so results are
    reproducible run-to-run and independent of global state. *)

type t

val create : int -> t
(** Seeded generator. *)

val next_int64 : t -> int64
(** Advances the state. *)

val split : t -> int -> t
(** [split t i] derives an independent child stream for index [i >= 0]
    without advancing [t]: the child state hashes (parent state, [i])
    through two SplitMix64 finalizer rounds, so distinct indices yield
    statistically unrelated streams (no collision on realistic draw
    counts — property-tested).  The replacement for ad-hoc reseeding:
    replicated experiments take [split master r] per replicate and
    [split replicate e] per entity, and results stay bit-identical
    however the replicates are scheduled.
    @raise Invalid_argument on a negative index. *)

val float : t -> float
(** Uniform in [0, 1). *)

val range : t -> min:int -> max:int -> int
(** Uniform integer in [min, max] inclusive.  Raises [Invalid_argument]
    when [min > max]. *)

val gaussian : t -> mean:float -> stddev:float -> float
(** Box-Muller. *)

val bernoulli : t -> p:float -> bool

val exponential : t -> rate:float -> float
(** Inverse-CDF exponential sample with rate [rate] (events per unit
    time): [-ln(1-u)/rate].  Raises [Invalid_argument] when [rate <= 0]. *)
