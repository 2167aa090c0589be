(** The `same serve` daemon: one warm {!Engine.Pipeline} behind a Unix
    domain socket, multiplexing concurrent analysis sessions.

    Three things make the warm path fast:

    - {b Request coalescing.}  Responses are content-addressed by
      {!Protocol.fingerprint}; concurrent requests with equal
      fingerprints share one in-flight computation (single-flight), and
      completed responses live in the engine's shared cache, so repeated
      requests — from any session or tenant — are served without
      re-solving.
    - {b Session multiplexing.}  Every connection is a thread, and each
      request runs under an {!Exec.with_jobs} budget of
      [max 1 (jobs / active_requests)], so a heavy Monte-Carlo [assess]
      cannot starve a cheap incremental [fmea] diff.  A request's
      parallel batch spawns up to [budget - 1] workers for that batch
      alone, from the process-wide count of [cores - 1] worker slots
      ({!Exec.live_workers}); it gets fewer, or runs inline, while other
      requests' batches hold the slots.
    - {b Incremental sessions.}  A client posts its model once ([open]),
      then streams edits; the server diffs model fingerprints, reuses
      unimpacted FMEA rows from the previous iteration and returns only
      the rows that changed.

    Responses never include wall-clock measurements, so they are
    bit-identical across [SAME_JOBS] settings and safe to cache. *)

type config = {
  socket_path : string;
  cache_dir : string option;  (** engine disk cache; [None] memory-only *)
  jobs : int;  (** job count shared out among concurrent requests *)
}

type stats = {
  requests : int;  (** requests answered (all kinds) *)
  analyses_computed : int;  (** analyse requests that ran a computation *)
  analyses_cached : int;  (** analyse requests served from the cache *)
  analyses_coalesced : int;  (** analyse requests that shared an in-flight leader *)
  sessions_open : int;
}

type t

val start : config -> t
(** Bind the socket (replacing any stale file), start the accept loop in
    a background thread and return immediately.  The engine is created
    warm: cost-model state is loaded and the first request pays any
    remaining warm-up. *)

val stop : t -> unit
(** Graceful shutdown: stop accepting, wait for in-flight requests,
    close and unlink the socket.  Idempotent; also triggered by a
    [shutdown] request or SIGTERM/SIGINT when running under {!run}. *)

val wait : t -> unit
(** Block until the server has shut down. *)

val stats : t -> stats

val engine : t -> Engine.Pipeline.t
(** The server's warm pipeline (exposed for tests and benchmarks). *)

val run : config -> unit
(** [start], install SIGTERM/SIGINT handlers that trigger {!stop}, and
    {!wait}.  This is what `same serve` calls. *)
