(** Shared-memory parallel execution for the analysis kernels.

    OCaml 5 gives the engine real parallelism: a parallel batch of
    independent tasks (one DC solve per injected fault, one window of
    deployment candidates, one verdict per store unit) runs on worker
    {!Stdlib.Domain}s that live for that batch.  The design constraints,
    in order:

    + {b Determinism.}  Results are collected {e in input order} into a
      pre-sized array, so a parallel run is bit-identical to the
      sequential one for pure task functions — scheduling only changes
      {e when} a task runs, never what the caller observes.  With
      [jobs = 1] no domain is ever involved: the tasks run inline in the
      caller, which is exactly the pre-parallel code path.
    + {b No idle workers.}  A parallel batch on [p] domains spawns its
      [p - 1] workers, which drain one atomic index cursor with the
      caller, and joins them before it returns, also when a task raised.  Nothing is left
      parked between batches to slow the sequential code beside it.  The
      price, per worker and batch, is a spawn, a join and the first
      touch of the worker's fresh minor heap: ~1.2 ms on a shared
      two-vCPU host, which {!Cost.decide} charges.
    + {b Bounded sharing.}  One count of live workers spans the process:
      a batch reserves up to [p - 1] of the [cores - 1] worker slots and
      runs inline if it gets none, so batches nested in a task and
      batches of concurrent daemon requests never oversubscribe the
      host, and never deadlock.

    Concurrency control: the job count comes from the [SAME_JOBS]
    environment variable, the [--jobs] CLI option ({!set_default_jobs})
    or, failing both, [Domain.recommended_domain_count ()]. *)

val default_jobs : unit -> int
(** Effective parallelism: the {!set_default_jobs} override if set, else
    [SAME_JOBS] (a positive integer; anything else is ignored), else
    [Domain.recommended_domain_count ()].  Always >= 1. *)

val env_jobs : unit -> int option
(** The [SAME_JOBS] environment variable, parsed.  A set-but-malformed
    value (not a positive integer) logs one {!Logs.warn} per distinct
    value and falls back to [None] — the documented behaviour, now no
    longer silent. *)

val set_default_jobs : int -> unit
(** Override the job count (clamped to >= 1).  Takes effect on the next
    parallel call. *)

val with_jobs : int -> (unit -> 'a) -> 'a
(** [with_jobs n f] runs [f ()] with the {e calling thread's} effective
    job count capped at [n] (clamped to >= 1): every {!default_jobs}
    consultation made by [f] on this thread — and therefore every parallel
    batch it submits without an explicit [?jobs] — runs on at most [n]
    domains.  Nests (the innermost cap wins) and restores the previous
    budget on return or exception.  Other threads are unaffected: this is
    the fair-scheduling hook the analysis daemon uses to give each
    concurrent request a slice of the job count.  A capped batch still
    reserves its workers from the process-wide count ({!live_workers}),
    so it may get fewer than its slice while other batches hold the
    host's cores. *)

val parallel_map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [parallel_map f xs] is [List.map f xs] evaluated on up to [jobs - 1]
    worker domains and the caller, results in input order.  One task per
    element — right when each task is substantial (a DC solve, a unit
    FMEA).  If any [f x] raises, the batch still completes and the
    exception of the {e lowest-index} failing element is re-raised
    (deterministic across schedules).
    [?jobs] overrides {!default_jobs} for this call only. *)

(** Adaptive scheduling: measure the batch in hand, then decide.

    A fixed "always parallelise with ~4 chunks per worker" rule made the
    small-problem injection FMEA {e slower} than sequential (0.19x on one
    core): dispatch overhead swamped sub-millisecond batches.
    {!scheduled_map} therefore runs the first few tasks of every batch
    in sequence and times them ({!Cost.pilot_size}), and the pure
    {!Cost.decide} weighs the rest of the batch against a constant
    charge per worker spawned ({!Cost.spawn_ns}).  Nothing is kept
    between batches or processes but the decision log.  The one way to force the
    sequential path is a job count of 1 ([--jobs 1], [SAME_JOBS=1],
    {!set_default_jobs} or {!with_jobs}): {!scheduled_map} then runs
    [List.map]. *)
module Cost : sig
  type decision = Sequential | Parallel of { chunk_size : int }

  type record = {
    d_key : string;
    d_tasks : int;
    d_jobs : int;
    d_decision : decision;
    d_measured_ns : float;
        (** the pilot's ns/task, the figure {!decide} was given; the
            whole batch's when it was all pilot *)
  }

  val spawn_ns : float
  (** The charge for one worker of one batch: 1.2 ms, the extra time a
      spawned, joined worker that allocates a minor heap's worth took
      over the same work inline on a shared two-vCPU host (most of it
      first-touch page faults on its fresh minor heap).  Two workers
      took about twice as long, so {!decide} charges it per worker. *)

  val pilot_size : tasks:int -> jobs:int -> cores:int -> int
  (** How many leading tasks of a batch run as the timed pilot: all of
      them at one job, {!pilot_tasks} of a longer batch, and of a batch
      of at most {!pilot_tasks} tasks a [1 / 2p] share ([p = min jobs
      cores]), at least one — so one heavy task per worker still leaves
      a remainder for {!decide}. *)

  val decide :
    tasks:int -> ns_per_task:float -> jobs:int -> cores:int -> decision
  (** The policy: with [p = min jobs cores], go parallel iff
      [tasks * ns_per_task * (p - 1) / p > 2 * spawn_ns * (p - 1)], with
      [chunk_size = max 1 (ceil (200 us / ns_per_task))], so each chunk
      holds ~200 us of work.  Pure and monotone: more tasks or a higher
      per-task cost never flips a parallel verdict back to sequential. *)

  val counters : unit -> int * int
  (** [(sequential, parallel)] batches scheduled so far. *)

  val decisions : unit -> record list
  (** The bounded decision log, oldest first. *)

  val pp_decisions : Format.formatter -> unit -> unit
  (** Render the scheduler verdicts for [--explain]: chosen mode, chunk
      size and the pilot's per-task cost — also when every batch ran
      sequentially. *)
end

val pilot_tasks : int
(** The longest pilot {!scheduled_map} runs in sequence, timed, before
    it decides about the rest of a batch (24). *)

val scheduled_map : ?jobs:int -> key:string -> ('a -> 'b) -> 'a list -> 'b list
(** [scheduled_map ~key f xs] is [List.map f xs] with the execution
    strategy for the tasks after the pilot chosen by {!Cost.decide}:
    sequential when they are too few or too cheap to pay for spawning
    workers, chunked parallel on [min jobs cores] domains otherwise.  A
    batch at one job is all pilot and spawns nothing.  Results (and the
    re-raised lowest-index exception) are bit-identical to [List.map] whatever
    the decision.  [key] labels the batch in the decision log. *)

val live_workers : unit -> int
(** Worker domains alive right now, over all batches in the process:
    never above [Domain.recommended_domain_count () - 1], and 0 whenever
    no parallel batch is running. *)
