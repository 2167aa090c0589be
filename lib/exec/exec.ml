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

module Cost = struct
  (* Per-kernel online cost estimation.  Each pool call site names its
     workload with a stable string key ("fmea.injection",
     "optimize.search", ...); every scheduled batch feeds an EWMA of the
     measured per-task nanoseconds under that key, and [decide] only
     parallelises when the estimated win clears the measured dispatch
     overhead.  All state is process-global (guarded by [lock]) so one
     warm engine amortises calibration across many analyses. *)

  type estimate = { ns_per_task : float; samples : int }

  type decision = Sequential | Parallel of { chunk_size : int }

  type record = {
    d_key : string;
    d_tasks : int;
    d_jobs : int;
    d_decision : decision;
    d_estimate_ns : float option;
    d_measured_ns : float option;
  }

  let lock = Mutex.create ()
  let estimates : (string, estimate) Hashtbl.t = Hashtbl.create 16
  let decision_log : record list ref = ref [] (* newest first, bounded *)
  let log_limit = 64
  let seq_batches = Atomic.make 0
  let par_batches = Atomic.make 0

  (* Smoothing factor: heavy enough that a cache-cold first batch does
     not dominate, light enough to track a workload whose per-task cost
     drifts (e.g. growing netlists across an iteration loop). *)
  let ewma_alpha = 0.3

  let now_ns () = Unix.gettimeofday () *. 1e9

  let observe ~key ~tasks elapsed_ns =
    if tasks > 0 && elapsed_ns >= 0.0 then begin
      let per_task = elapsed_ns /. float_of_int tasks in
      Mutex.lock lock;
      (match Hashtbl.find_opt estimates key with
      | None -> Hashtbl.replace estimates key { ns_per_task = per_task; samples = 1 }
      | Some e ->
          Hashtbl.replace estimates key
            {
              ns_per_task =
                ((1.0 -. ewma_alpha) *. e.ns_per_task)
                +. (ewma_alpha *. per_task);
              samples = e.samples + 1;
            });
      Mutex.unlock lock
    end

  let estimate ~key =
    Mutex.lock lock;
    let r = Hashtbl.find_opt estimates key in
    Mutex.unlock lock;
    r

  (* ----- dispatch overhead: measured, not guessed ----- *)

  (* Conservative default (50 us) until a calibration runs or an imported
     state supplies the measured value for this machine. *)
  let overhead_ns = ref 50_000.0
  let calibrated = ref false

  let dispatch_overhead_ns () = !overhead_ns

  let set_dispatch_overhead_ns ns =
    overhead_ns := Float.max 1.0 ns;
    calibrated := true

  let calibrate ?(rounds = 16) () =
    (* Time empty batches through a real pool: wake-up, cursor atomics,
       collection.  Median across rounds rejects scheduler noise. *)
    let jobs = Stdlib.max 2 (default_jobs ()) in
    let n = 256 in
    run_batch ~jobs n (fun _ -> ());
    (* first batch pays domain spawn *)
    let samples =
      List.init rounds (fun _ ->
          let t0 = now_ns () in
          run_batch ~jobs n (fun _ -> ());
          now_ns () -. t0)
    in
    let sorted = List.sort compare samples in
    let median = List.nth sorted (rounds / 2) in
    overhead_ns := Float.max 1_000.0 median;
    calibrated := true;
    !overhead_ns

  let ensure_calibrated () = if not !calibrated then ignore (calibrate ())

  (* ----- effective parallelism ----- *)

  (* [SAME_JOBS] expresses intent; physical cores bound the achievable
     win.  Tests and benches may pin an assumed core count so decisions
     are reproducible across machines. *)
  let assumed_cores = ref None

  let set_assumed_cores c = assumed_cores := c

  let effective_cores () =
    match !assumed_cores with
    | Some c -> Stdlib.max 1 c
    | None -> Stdlib.max 1 (Domain.recommended_domain_count ())

  (* ----- the policy ----- *)

  (* Parallelise only when the estimated saving beats the dispatch
     overhead with margin to spare:
       saving = tasks * ns_per_task * (p - 1) / p   with p = min jobs cores
       go parallel iff saving > 2 * overhead_ns.  *)
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

  let decide ~tasks ~cost ~jobs =
    let p = Stdlib.min (Stdlib.max 1 jobs) (effective_cores ()) in
    if tasks <= 1 || p <= 1 then Sequential
    else begin
      let c = Float.max 1.0 cost.ns_per_task in
      let total = c *. float_of_int tasks in
      let win = total *. (float_of_int (p - 1) /. float_of_int p) in
      if win > margin *. !overhead_ns then
        Parallel { chunk_size = chunk_for ~tasks ~jobs:p c }
      else Sequential
    end

  (* ----- bookkeeping: counters and the decision log ----- *)

  let note = function
    | Sequential -> Atomic.incr seq_batches
    | Parallel _ -> Atomic.incr par_batches

  let counters () = (Atomic.get seq_batches, Atomic.get par_batches)

  let record r =
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

  let reset () =
    Mutex.lock lock;
    Hashtbl.reset estimates;
    decision_log := [];
    Mutex.unlock lock;
    Atomic.set seq_batches 0;
    Atomic.set par_batches 0

  (* ----- persistence (stored under Engine.Cache by the caller) ----- *)

  let state_version = "same-cost/1"

  let export () =
    let b = Buffer.create 256 in
    Buffer.add_string b state_version;
    Buffer.add_char b '\n';
    Buffer.add_string b (Printf.sprintf "overhead_ns %.17g\n" !overhead_ns);
    Mutex.lock lock;
    let entries =
      Hashtbl.fold (fun k e acc -> (k, e) :: acc) estimates []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    in
    Mutex.unlock lock;
    List.iter
      (fun (k, e) ->
        Buffer.add_string b
          (Printf.sprintf "%s %.17g %d\n" k e.ns_per_task e.samples))
      entries;
    Buffer.contents b

  let import s =
    match String.split_on_char '\n' s with
    | header :: rest when String.trim header = state_version -> (
        try
          List.iter
            (fun line ->
              match String.split_on_char ' ' (String.trim line) with
              | [ "" ] -> ()
              | [ "overhead_ns"; v ] ->
                  set_dispatch_overhead_ns (float_of_string v)
              | [ key; ns; samples ] ->
                  let ns = float_of_string ns in
                  let samples = int_of_string samples in
                  if ns >= 0.0 && samples > 0 then begin
                    Mutex.lock lock;
                    Hashtbl.replace estimates key
                      { ns_per_task = ns; samples };
                    Mutex.unlock lock
                  end
              | _ -> failwith "malformed cost-state line")
            rest;
          true
        with _ -> false)
    | _ -> false

  (* ----- rendering for --explain ----- *)

  let pp_mode ppf = function
    | Sequential -> Format.fprintf ppf "sequential"
    | Parallel { chunk_size } ->
        Format.fprintf ppf "parallel(chunk %d)" chunk_size

  let pp_ns ppf = function
    | None -> Format.fprintf ppf "-"
    | Some ns when ns >= 1e6 -> Format.fprintf ppf "%.2fms" (ns /. 1e6)
    | Some ns when ns >= 1e3 -> Format.fprintf ppf "%.1fus" (ns /. 1e3)
    | Some ns -> Format.fprintf ppf "%.0fns" ns

  let pp_decisions ppf () =
    match decisions () with
    | [] ->
        Format.fprintf ppf
          "scheduler: no batches submitted (nothing to parallelise)"
    | ds ->
        let seq, par = counters () in
        Format.fprintf ppf
          "scheduler: %d batch(es) parallel, %d sequential (overhead %a, \
           %d core(s) assumed)"
          par seq pp_ns
          (Some !overhead_ns)
          (effective_cores ());
        List.iter
          (fun r ->
            let mode = Format.asprintf "%a" pp_mode r.d_decision in
            Format.fprintf ppf
              "@\n  %-20s %6d tasks  jobs=%d  %-20s est %a/task  measured \
               %a/task"
              r.d_key r.d_tasks r.d_jobs mode pp_ns r.d_estimate_ns pp_ns
              r.d_measured_ns)
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

(* First batch under a fresh key: run this many tasks sequentially to
   seed the EWMA before deciding about the rest.  Small enough that a
   cheap workload loses nothing, large enough to average solver noise. *)
let pilot_tasks = 24

let scheduled_map ?jobs ~key f xs =
  match xs with
  | [] -> []
  | [ x ] -> [ f x ]
  | xs ->
      let n = List.length xs in
      let jobs =
        match jobs with Some j -> Stdlib.max 1 j | None -> default_jobs ()
      in
      let run_parallel chunk_size xs =
        chunk_list ~chunk_size xs
        |> parallel_map ~jobs (List.map f)
        |> List.concat
      in
      let parallel_possible = jobs > 1 && Cost.effective_cores () > 1 in
      if parallel_possible then Cost.ensure_calibrated ();
      let est0 = Cost.estimate ~key in
      let t0 = Cost.now_ns () in
      let decision, result =
        if not parallel_possible then (Cost.Sequential, List.map f xs)
        else
          match est0 with
          | Some e -> (
              match Cost.decide ~tasks:n ~cost:e ~jobs with
              | Cost.Sequential -> (Cost.Sequential, List.map f xs)
              | Cost.Parallel { chunk_size } as d ->
                  (d, run_parallel chunk_size xs))
          | None -> (
              (* No estimate yet: sequential pilot seeds the EWMA, then
                 decide about the remainder.  Never slower than sequential
                 by construction. *)
              let pilot = Stdlib.min pilot_tasks n in
              let head, tail = split_n pilot xs in
              let tp = Cost.now_ns () in
              let head_r = List.map f head in
              Cost.observe ~key ~tasks:pilot (Cost.now_ns () -. tp);
              if tail = [] then (Cost.Sequential, head_r)
              else
                match Cost.estimate ~key with
                | None -> (Cost.Sequential, head_r @ List.map f tail)
                | Some e -> (
                    match Cost.decide ~tasks:(n - pilot) ~cost:e ~jobs with
                    | Cost.Sequential ->
                        (Cost.Sequential, head_r @ List.map f tail)
                    | Cost.Parallel { chunk_size } as d ->
                        (d, head_r @ run_parallel chunk_size tail)))
      in
      let elapsed = Cost.now_ns () -. t0 in
      Cost.observe ~key ~tasks:n elapsed;
      Cost.note decision;
      Cost.record
        {
          Cost.d_key = key;
          d_tasks = n;
          d_jobs = jobs;
          d_decision = decision;
          d_estimate_ns = Option.map (fun e -> e.Cost.ns_per_task) est0;
          d_measured_ns = Some (elapsed /. float_of_int n);
        };
      result
