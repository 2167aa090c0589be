(* Parallel batches on worker domains that live for one batch, with
   deterministic in-order collection. *)

(* ---------- job-count policy ---------- *)

let jobs_override = ref None

(* Warn once per distinct malformed value, not per call: [default_jobs]
   runs on every parallel batch. *)
let warned_jobs = ref None

let env_jobs () =
  match Sys.getenv_opt "SAME_JOBS" with
  | None -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> Some n
      | Some _ | None ->
          if !warned_jobs <> Some s then begin
            warned_jobs := Some s;
            Logs.warn (fun m ->
                m
                  "ignoring malformed SAME_JOBS=%S (expected a positive \
                   integer); using %d domain(s)"
                  s
                  (Stdlib.max 1 (Domain.recommended_domain_count ())))
          end;
          None)

(* Per-thread job budgets: the analysis daemon runs many concurrent
   requests on the host's cores, and caps each request's batches so a
   heavy assessment cannot starve cheap incremental diffs.
   Keyed by the calling systhread (each domain's root is a distinct
   thread, so budgets never leak across domains), consulted by
   [default_jobs] under every batch submission. *)

let budgets : (int, int) Hashtbl.t = Hashtbl.create 8
let budgets_lock = Mutex.create ()

let jobs_budget () =
  Mutex.lock budgets_lock;
  let b = Hashtbl.find_opt budgets (Thread.id (Thread.self ())) in
  Mutex.unlock budgets_lock;
  b

let with_jobs n f =
  let n = Stdlib.max 1 n in
  let tid = Thread.id (Thread.self ()) in
  Mutex.lock budgets_lock;
  let prev = Hashtbl.find_opt budgets tid in
  Hashtbl.replace budgets tid n;
  Mutex.unlock budgets_lock;
  let restore () =
    Mutex.lock budgets_lock;
    (match prev with
    | Some p -> Hashtbl.replace budgets tid p
    | None -> Hashtbl.remove budgets tid);
    Mutex.unlock budgets_lock
  in
  match f () with
  | v ->
      restore ();
      v
  | exception e ->
      restore ();
      raise e

let default_jobs () =
  let base =
    match !jobs_override with
    | Some n -> n
    | None -> (
        match env_jobs () with
        | Some n -> n
        | None -> Stdlib.max 1 (Domain.recommended_domain_count ()))
  in
  match jobs_budget () with Some b -> Stdlib.min b base | None -> base

let set_default_jobs n = jobs_override := Some (Stdlib.max 1 n)

(* ---------- per-batch workers ---------- *)

(* Workers live for one batch: [run_batch] spawns them, they and the
   submitting domain race on one atomic index cursor (dynamic load
   balance for uneven tasks like Newton solves, while each task's result
   slot is fixed by its index), and the submitter joins every worker
   before it returns.  No worker domain stays parked between batches,
   where it would slow the sequential code beside it.

   [live] counts the worker domains alive in the process.  A batch
   reserves up to [jobs - 1] of the [cores - 1] slots and runs inline if
   it gets none, so nested and concurrent batches share the host's cores
   and never oversubscribe them. *)

let live = Atomic.make 0

let live_workers () = Atomic.get live

let rec reserve want =
  let bound = Domain.recommended_domain_count () - 1 in
  let cur = Atomic.get live in
  let k = Stdlib.min want (bound - cur) in
  if k <= 0 then 0
  else if Atomic.compare_and_set live cur (cur + k) then k
  else reserve want

let run_batch ?jobs n task =
  let jobs = match jobs with Some j -> Stdlib.max 1 j | None -> default_jobs () in
  let k = if jobs <= 1 || n <= 1 then 0 else reserve (Stdlib.min (jobs - 1) (n - 1)) in
  if k = 0 then
    for i = 0 to n - 1 do
      task i
    done
  else begin
    let next = Atomic.make 0 in
    let rec drain () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        task i;
        drain ()
      end
    in
    let workers = ref [] in
    (* Join and release also when a task breaks its no-raise contract;
       a worker swallows the violation so that [join] cannot raise. *)
    Fun.protect
      ~finally:(fun () ->
        List.iter Domain.join !workers;
        ignore (Atomic.fetch_and_add live (-k)))
      (fun () ->
        for _ = 1 to k do
          workers := Domain.spawn (fun () -> try drain () with _ -> ()) :: !workers
        done;
        drain ())
  end

(* ---------- wrappers ---------- *)

(* Each slot records either the value or the exception; the lowest-index
   exception is re-raised so failures are as deterministic as results. *)
let collect ?jobs f input =
  let n = Array.length input in
  let out = Array.make n None in
  run_batch ?jobs n (fun i ->
      out.(i) <- Some (try Ok (f input.(i)) with e -> Error e));
  Array.map
    (function
      | Some (Ok v) -> v
      | Some (Error e) -> raise e
      | None -> assert false (* every index ran exactly once *))
    out

let parallel_map ?jobs f xs =
  match xs with
  | [] -> []
  | [ x ] -> [ f x ]
  | xs -> Array.to_list (collect ?jobs f (Array.of_list xs))

(* [chunk_size >= 1]: {!Cost.chunk_for} never returns less. *)
let chunk_list ~chunk_size xs =
  let rec take k acc = function
    | rest when k = 0 -> (List.rev acc, rest)
    | [] -> (List.rev acc, [])
    | x :: rest -> take (k - 1) (x :: acc) rest
  in
  let rec go acc = function
    | [] -> List.rev acc
    | xs ->
        let chunk, rest = take chunk_size [] xs in
        go (chunk :: acc) rest
  in
  go [] xs

(* ---------- adaptive scheduling: the cost model ---------- *)

(* Every multi-job batch runs up to this many tasks in sequence, timed,
   before deciding about the rest.  Small enough that a cheap workload
   loses nothing, large enough to average solver noise. *)
let pilot_tasks = 24

module Cost = struct
  (* A pure decision from the batch in hand: [scheduled_map] times a
     sequential pilot and [decide] weighs the rest of the batch against
     a constant charge per worker spawned.  Nothing is learned, so no
     batch and no process inherits an estimate measured elsewhere.  The
     only state is the bounded decision log and its counters, read by
     [--explain], [Engine.Stats] and the bench. *)

  type decision = Sequential | Parallel of { chunk_size : int }

  type record = {
    d_key : string;
    d_tasks : int;
    d_jobs : int;
    d_decision : decision;
    d_measured_ns : float;
  }

  let lock = Mutex.create ()
  let decision_log : record list ref = ref [] (* newest first, bounded *)
  let log_limit = 64
  let seq_batches = Atomic.make 0
  let par_batches = Atomic.make 0

  let now_ns () = Int64.to_float (Monotonic_clock.now ())

  (* Spawning and joining one worker domain for one batch.  A fresh
     domain first-touches its minor heap, ~500 page faults for the
     default 2 MB: on a shared two-vCPU host a worker that allocates
     that much took a median of 1.37-1.54 ms against 0.18-0.20 ms
     inline (four passes of 200), and two such workers 1.9-2.5 ms, so
     the charge is per worker.  An empty worker took 72-99 us. *)
  let spawn_ns = 1_200_000.0

  let cores () = Stdlib.max 1 (Domain.recommended_domain_count ())

  (* [SAME_JOBS] expresses intent; physical cores bound the achievable
     win, and a parallel batch runs on exactly this many workers. *)
  let workers ~jobs ~cores = Stdlib.max 1 (Stdlib.min jobs cores)

  (* ----- the policy ----- *)

  (* Parallelise only when the saving beats spawning the workers with
     margin to spare:
       saving = tasks * ns_per_task * (p - 1) / p   with p = min jobs cores
       go parallel iff saving > 2 * spawn_ns * (p - 1).  *)
  let margin = 2.0

  (* A chunk holds ~200 us of work so per-chunk dispatch stays in the
     noise.  Workers cannot idle for want of chunks: a batch that clears
     the charge holds over 2.4 ms of work per worker, twelve such
     chunks, and a task over 200 us is a chunk of its own.  [decide]
     passes [ns_per_task >= 1]. *)
  let chunk_target_ns = 200_000.0

  let chunk_for ns_per_task =
    Stdlib.max 1 (int_of_float (Float.ceil (chunk_target_ns /. ns_per_task)))

  (* One job runs the whole batch as the pilot ([List.map]).  A batch
     longer than [pilot_tasks] pilots that many; a shorter one pilots a
     [1 / 2p] share, at least one task, so that a handful of heavy tasks
     (one search window or store unit per worker) still leaves a
     remainder worth sharing out. *)
  let pilot_size ~tasks ~jobs ~cores =
    if jobs <= 1 then tasks
    else if tasks > pilot_tasks then pilot_tasks
    else Stdlib.max 1 (tasks / (2 * workers ~jobs ~cores))

  let decide ~tasks ~ns_per_task ~jobs ~cores =
    let p = workers ~jobs ~cores in
    if tasks <= 1 || p <= 1 then Sequential
    else begin
      let c = Float.max 1.0 ns_per_task in
      let total = c *. float_of_int tasks in
      let win = total *. (float_of_int (p - 1) /. float_of_int p) in
      if win > margin *. spawn_ns *. float_of_int (p - 1) then
        Parallel { chunk_size = chunk_for c }
      else Sequential
    end

  (* ----- bookkeeping: counters and the decision log ----- *)

  let counters () = (Atomic.get seq_batches, Atomic.get par_batches)

  let record r =
    (match r.d_decision with
    | Sequential -> Atomic.incr seq_batches
    | Parallel _ -> Atomic.incr par_batches);
    Mutex.lock lock;
    let keep = !decision_log in
    let keep =
      if List.length keep >= log_limit then
        List.filteri (fun i _ -> i < log_limit - 1) keep
      else keep
    in
    decision_log := r :: keep;
    Mutex.unlock lock

  let decisions () =
    Mutex.lock lock;
    let l = List.rev !decision_log in
    Mutex.unlock lock;
    l

  (* ----- rendering for --explain ----- *)

  let pp_mode ppf = function
    | Sequential -> Format.fprintf ppf "sequential"
    | Parallel { chunk_size } ->
        Format.fprintf ppf "parallel(chunk %d)" chunk_size

  let pp_ns ppf ns =
    if ns >= 1e6 then Format.fprintf ppf "%.2fms" (ns /. 1e6)
    else if ns >= 1e3 then Format.fprintf ppf "%.1fus" (ns /. 1e3)
    else Format.fprintf ppf "%.0fns" ns

  let pp_decisions ppf () =
    match decisions () with
    | [] ->
        Format.fprintf ppf
          "scheduler: no batches submitted (nothing to parallelise)"
    | ds ->
        let seq, par = counters () in
        Format.fprintf ppf
          "scheduler: %d batch(es) parallel, %d sequential (spawn %a per \
           worker, %d core(s))"
          par seq pp_ns spawn_ns (cores ());
        List.iter
          (fun r ->
            let mode = Format.asprintf "%a" pp_mode r.d_decision in
            Format.fprintf ppf
              "@\n  %-20s %6d tasks  jobs=%d  %-20s pilot %a/task" r.d_key
              r.d_tasks r.d_jobs mode pp_ns r.d_measured_ns)
          ds
end

(* ---------- the scheduled entry point ---------- *)

let rec split_n k xs =
  if k = 0 then ([], xs)
  else
    match xs with
    | [] -> ([], [])
    | x :: rest ->
        let a, b = split_n (k - 1) rest in
        (x :: a, b)

let scheduled_map ?jobs ~key f xs =
  match xs with
  | [] -> []
  | [ x ] -> [ f x ]
  | xs ->
      let n = List.length xs in
      let jobs =
        match jobs with Some j -> Stdlib.max 1 j | None -> default_jobs ()
      in
      let cores = Cost.cores () in
      let pilot = Cost.pilot_size ~tasks:n ~jobs ~cores in
      let head, tail = if pilot = n then (xs, []) else split_n pilot xs in
      let t0 = Cost.now_ns () in
      let head = List.map f head in
      let ns_per_task = (Cost.now_ns () -. t0) /. float_of_int pilot in
      let decision =
        Cost.decide ~tasks:(n - pilot) ~ns_per_task ~jobs ~cores
      in
      let tail =
        match decision with
        | Cost.Sequential -> List.map f tail
        | Cost.Parallel { chunk_size } ->
            chunk_list ~chunk_size tail
            |> parallel_map ~jobs:(Cost.workers ~jobs ~cores) (List.map f)
            |> List.concat
      in
      Cost.record
        {
          Cost.d_key = key;
          d_tasks = n;
          d_jobs = jobs;
          d_decision = decision;
          d_measured_ns = ns_per_task;
        };
      (match tail with [] -> head | tail -> head @ tail)
