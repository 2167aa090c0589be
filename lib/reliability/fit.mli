(** Failure-In-Time arithmetic.

    1 FIT = 1e-9 failures/hour.  FIT values add across failure modes and
    components (constant-rate assumption), scale by failure-mode
    distribution shares and shrink under diagnostic coverage. *)

type t = float
(** FIT, non-negative. *)

val of_float : float -> t
(** Raises [Invalid_argument] on negatives or non-finite values. *)

val to_failures_per_hour : t -> float
(** [fit * 1e-9]. *)

val of_failures_per_hour : float -> t

val share : t -> distribution_pct:float -> t
(** The FIT slice owned by one failure mode: [fit * pct / 100].  Raises
    [Invalid_argument] when the percentage is NaN or outside [0, 100]. *)

val residual : t -> coverage_pct:float -> t
(** FIT left undetected by a safety mechanism: [fit * (1 - cov/100)].
    Raises [Invalid_argument] when the coverage is NaN or outside
    [0, 100]. *)

val sum : t list -> t

val failure_probability : t -> mission_hours:float -> float
(** Probability that a constant-rate failure occurs within the mission:
    [1 - exp(-fit * 1e-9 * mission_hours)] — the exponential CDF at the
    mission time.  The single source of the FIT → probability conversion
    used by fault-tree quantification and Monte-Carlo assessment.
    Raises [Invalid_argument] on a negative mission time. *)

val pp : Format.formatter -> t -> unit
(** Prints like the paper's tables: ["3 FIT"], ["4.5 FIT"]. *)

val equal : t -> t -> bool
