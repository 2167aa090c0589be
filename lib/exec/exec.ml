(* Fixed-size domain pool with deterministic in-order collection.

   One batch runs at a time; workers and the submitting domain race on an
   atomic index cursor, so distribution is dynamic (good load balance for
   uneven tasks like Newton solves) while the result slot of each task is
   fixed by its index (determinism). *)

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

(* Per-thread job budgets: the analysis daemon multiplexes many
   concurrent requests onto the one shared pool, and caps each request's
   batches so a heavy assessment cannot starve cheap incremental diffs.
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

(* ---------- the pool ---------- *)

module Pool = struct
  type batch = {
    total : int;
    task : int -> unit;
    next : int Atomic.t;
    completed : int Atomic.t;
  }

  type t = {
    pool_jobs : int;
    lock : Mutex.t;
    work_available : Condition.t;
    batch_finished : Condition.t;
    mutable current : batch option;
    mutable stop : bool;
    mutable workers : unit Domain.t list;
  }

  let jobs t = t.pool_jobs

  (* True while the calling domain is executing a pool task: nested
     batches then run inline instead of waiting on themselves. *)
  let in_task = Domain.DLS.new_key (fun () -> ref false)

  let drain batch =
    let flag = Domain.DLS.get in_task in
    let rec loop () =
      let i = Atomic.fetch_and_add batch.next 1 in
      if i < batch.total then begin
        flag := true;
        (try batch.task i
         with e ->
           flag := false;
           ignore (Atomic.fetch_and_add batch.completed 1);
           raise e);
        flag := false;
        ignore (Atomic.fetch_and_add batch.completed 1);
        loop ()
      end
    in
    loop ()

  let worker_loop t =
    let rec loop () =
      Mutex.lock t.lock;
      let rec await () =
        if t.stop then begin
          Mutex.unlock t.lock;
          `Stop
        end
        else
          match t.current with
          | Some b when Atomic.get b.next < b.total ->
              Mutex.unlock t.lock;
              `Work b
          | Some _ | None ->
              Condition.wait t.work_available t.lock;
              await ()
      in
      match await () with
      | `Stop -> ()
      | `Work b ->
          (* [task] is documented not to raise; a violation must not kill
             the worker domain or wedge the submitter. *)
          (try drain b with _ -> ());
          (* The last finisher wakes the submitter. *)
          Mutex.lock t.lock;
          if Atomic.get b.completed >= b.total then
            Condition.broadcast t.batch_finished;
          Mutex.unlock t.lock;
          loop ()
    in
    loop ()

  let create ~jobs =
    let jobs = Stdlib.max 1 jobs in
    let t =
      {
        pool_jobs = jobs;
        lock = Mutex.create ();
        work_available = Condition.create ();
        batch_finished = Condition.create ();
        current = None;
        stop = false;
        workers = [];
      }
    in
    t.workers <- List.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
    t

  let run_inline n task =
    for i = 0 to n - 1 do
      task i
    done

  let run t n task =
    if n <= 0 then ()
    else if t.pool_jobs <= 1 || n = 1 || !(Domain.DLS.get in_task) then
      run_inline n task
    else begin
      let batch =
        { total = n; task; next = Atomic.make 0; completed = Atomic.make 0 }
      in
      Mutex.lock t.lock;
      if t.current <> None || t.stop then begin
        (* Another domain owns the pool right now; don't queue behind it. *)
        Mutex.unlock t.lock;
        run_inline n task
      end
      else begin
        t.current <- Some batch;
        Condition.broadcast t.work_available;
        Mutex.unlock t.lock;
        (* The submitter is a full member of the crew.  Always reclaim
           the pool, even if a task breaks its no-raise contract. *)
        Fun.protect
          ~finally:(fun () ->
            Mutex.lock t.lock;
            while Atomic.get batch.completed < batch.total do
              Condition.wait t.batch_finished t.lock
            done;
            t.current <- None;
            Mutex.unlock t.lock)
          (fun () -> drain batch)
      end
    end

  let shutdown t =
    Mutex.lock t.lock;
    t.stop <- true;
    Condition.broadcast t.work_available;
    Mutex.unlock t.lock;
    List.iter Domain.join t.workers;
    t.workers <- []
end

(* ---------- the shared global pool ---------- *)

(* Lazily created at the first parallel call; recreated when the job
   count changes (set_default_jobs / SAME_JOBS differ from its size).
   Guarded by a mutex: concurrent resize would leak domains. *)

let global_pool : Pool.t option ref = ref None

let global_lock = Mutex.create ()

let obtain_pool jobs =
  Mutex.lock global_lock;
  let pool =
    match !global_pool with
    | Some p when Pool.jobs p = jobs -> p
    | existing ->
        (* Resize: detach the old pool first so a concurrent caller can't
           also try to retire it, then shut it down unlocked. *)
        global_pool := None;
        Option.iter
          (fun p ->
            Mutex.unlock global_lock;
            Pool.shutdown p;
            Mutex.lock global_lock)
          existing;
        let p = Pool.create ~jobs in
        global_pool := Some p;
        p
  in
  Mutex.unlock global_lock;
  pool

let run_batch ?jobs n task =
  let jobs = match jobs with Some j -> Stdlib.max 1 j | None -> default_jobs () in
  if jobs <= 1 || n <= 1 then Pool.run_inline n task
  else Pool.run (obtain_pool jobs) n task

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
     one constant charge for waking the pool.  Nothing is learned, so no
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

  let now_ns () = Unix.gettimeofday () *. 1e9

  (* Waking the pool for one batch.  Above every empty-batch timing
     measured on a shared two-vCPU host (4-39 us over 10 runs), that is
     with at most two workers; that it bounds the wake-up of more
     workers is unverified. *)
  let wake_ns = 50_000.0

  let cores () = Stdlib.max 1 (Domain.recommended_domain_count ())

  (* [SAME_JOBS] expresses intent; physical cores bound the achievable
     win, and a parallel batch runs on exactly this many workers. *)
  let workers ~jobs ~cores = Stdlib.max 1 (Stdlib.min jobs cores)

  (* ----- the policy ----- *)

  (* Parallelise only when the saving beats waking the pool with margin
     to spare:
       saving = tasks * ns_per_task * (p - 1) / p   with p = min jobs cores
       go parallel iff saving > 2 * wake_ns.  *)
  let margin = 2.0

  (* A chunk should hold ~200 us of work so per-chunk dispatch stays in
     the noise, but never so few chunks that workers idle: keep at least
     two chunks per worker when the list allows it. *)
  let chunk_target_ns = 200_000.0

  let chunk_for ~tasks ~jobs ns_per_task =
    let balance = Stdlib.max 1 (tasks / (2 * Stdlib.max 1 jobs)) in
    let amortise =
      if ns_per_task <= 0.0 then balance
      else
        let c = int_of_float (Float.ceil (chunk_target_ns /. ns_per_task)) in
        Stdlib.max 1 c
    in
    Stdlib.max 1 (Stdlib.min balance amortise)

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
      if win > margin *. wake_ns then
        Parallel { chunk_size = chunk_for ~tasks ~jobs:p c }
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
          "scheduler: %d batch(es) parallel, %d sequential (wake-up %a, %d \
           core(s))"
          par seq pp_ns wake_ns (cores ());
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
