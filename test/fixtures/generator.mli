(** Synthetic scalable netlists for benchmarking and scaling studies.

    Both topologies model a DC power-distribution network: a 12 V supply
    feeding resistive segments ([0.05 Ω]) with a [100 Ω] load hanging
    off every junction.  They are purely linear (no diodes), so faulted
    re-solves admit an exact accuracy comparison against dense
    re-analysis.  Generation is deterministic: the same parameters
    always produce the identical netlist. *)

val ladder : sections:int -> Circuit.Netlist.t
(** A series ladder of [sections] segments.  Every 16th segment routes
    through a current sensor (adding an internal node and a branch
    unknown); a voltage sensor watches the far end.  MNA unknowns grow
    as roughly [sections * 17/16 + 2] — [~578] at 512 sections.  Raises
    [Invalid_argument] when [sections < 1]. *)

val grid : rows:int -> cols:int -> Circuit.Netlist.t
(** A [rows x cols] resistive mesh fed at one corner through a sensed
    supply branch, load at every junction, voltage sensor at the
    opposite corner.  MNA unknowns are [rows * cols + 3].  Raises
    [Invalid_argument] when either dimension is [< 1]. *)

val synthetic_catalogue : Reliability.Reliability_model.t
(** Failure modes for the element kinds of {!ladder} and {!grid}
    netlists (resistor, load, vsource, current_sensor) — used by the
    scaling benchmarks, where every injectable mode exercises a faulted
    solve. *)

(** {1 Synthetic block diagrams}

    Deterministic SSAM architectures with a closed-form input→output
    simple-path count — the scaling subjects for the path FMEA (paper
    Algorithm 1).  Every child block carries one loss-of-function
    failure mode at 100 % distribution and 10 FIT. *)

val diamond_arch : stages:int -> Ssam.Architecture.component
(** A chain of [stages] diamonds: junction [J0] splits into two parallel
    legs rejoining at [J1], and so on.  The junctions [J0..Jn] are the
    exact single points; the legs never are.  Simple-path count is
    [2^stages] — 14 stages sit just under the 20 000-path enumeration
    cap, 18 stages far beyond it.  Raises [Invalid_argument] when
    [stages < 1]. *)

val grid_arch : rows:int -> cols:int -> Ssam.Architecture.component
(** A [rows x cols] block grid wired right and down, entered at the
    top-left corner and exited at the bottom-right.  The two corners are
    the only single points (for [rows, cols >= 2]); the path count is
    the binomial [C (rows+cols-2) (rows-1)].  Raises [Invalid_argument]
    when either dimension is [< 1]. *)

val diamond_path_count : stages:int -> int
(** [2^stages], saturating at [max_int]. *)

val grid_path_count : rows:int -> cols:int -> int
(** [C (rows+cols-2) (rows-1)], saturating at [max_int]. *)
