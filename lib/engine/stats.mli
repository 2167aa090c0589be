(** Pipeline instrumentation: hits, misses, solves performed, rows
    reused.

    Counters are atomic because the injection kernel classifies rows on
    the {!Exec} domain pool — hooks fire from worker domains.  The
    {e values} are nevertheless deterministic for a given input: what is
    reused is decided by fingerprints, not by scheduling. *)

type t

val create : unit -> t

val reset : t -> unit

(** Counter access for the pipeline (callers normally only read
    {!snapshot}). *)

val incr_mem_hit : t -> unit
val incr_disk_hit : t -> unit
val incr_miss : t -> unit
val incr_store : t -> unit
val incr_golden_solve : t -> unit
val incr_row_classified : t -> unit
val incr_row_reused : t -> unit
val incr_rank_update : t -> unit
val incr_reused : t -> unit

val add_golden_newton : t -> int -> unit
(** Adds the Newton iterations of one golden solve. *)

val add_fault_newton : t -> int -> unit
(** Adds the Newton iterations of one injected fault's solve; a fault
    that ran no Newton loop (0) is not counted. *)

val add_search : t -> scored:int -> pruned:int -> unit
(** Adds one Step 4b search's work ({!Optimize.Search.optimise}'s
    [on_scored]). *)

type snapshot = {
  mem_hits : int;  (** artefacts served from the memory tier *)
  disk_hits : int;  (** artefacts served from the disk tier *)
  misses : int;  (** artefacts that had to be computed *)
  stores : int;  (** artefacts written to the cache *)
  golden_solves : int;  (** golden (un-faulted) circuit solves *)
  rows_classified : int;  (** FMEA rows classified by fault injection *)
  rows_reused : int;
      (** FMEA rows taken from a previous table, verbatim or re-priced
          at a new FIT *)
  rank_updates : int;
      (** faulted solves served by a low-rank (SMW) re-solve against the
          golden factors *)
  reused : int;
      (** faulted solves that needed no solve at all: the fault left
          every MNA stamp as it was (e.g. an open capacitor), so the
          golden solution was read again *)
  golden_newton : int;
      (** Newton iterations of the golden solves
          ({!Circuit.Dc.newton_iterations}) *)
  fault_newton : int;  (** Newton iterations summed over injected faults *)
  newton_faults : int;
      (** injected faults whose solve ran a Newton loop (circuits with
          diodes other than the faulted element) *)
  search_scored : int;
      (** deployment combinations the Step 4b searches scored (the
          moves, for the greedy fallback) *)
  search_pruned : int;
      (** subtrees of combinations the Step 4b searches skipped unscored,
          their bounds showing no candidate in them could win *)
  sched_sequential : int;
      (** pool batches the adaptive scheduler ran sequentially
          (process-wide, from {!Exec.Cost.counters}) *)
  sched_parallel : int;
      (** pool batches the adaptive scheduler dispatched to the domain
          pool (process-wide, from {!Exec.Cost.counters}) *)
}

val snapshot : t -> snapshot

val hits : snapshot -> int
(** [mem_hits + disk_hits]. *)

val solves_performed : snapshot -> int
(** Circuit solves this pipeline actually ran:
    [golden_solves + rank_updates].  A [reused]
    injection ran no solve, and a row without a fault model none
    either. *)

val pp : Format.formatter -> snapshot -> unit
(** One-line summary, the [--explain] output. *)
