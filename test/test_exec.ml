(* The parallel execution substrate and its central promise: a parallel
   run is bit-identical to the sequential one.  Worker mechanics first,
   then end-to-end determinism of every parallelised kernel at
   SAME_JOBS in {1, 2, 4}. *)

let with_jobs n f =
  let saved = Exec.default_jobs () in
  Fun.protect
    ~finally:(fun () -> Exec.set_default_jobs saved)
    (fun () ->
      Exec.set_default_jobs n;
      f ())

(* ---------- worker mechanics ---------- *)

let test_parallel_map () =
  List.iter
    (fun jobs ->
      List.iter
        (fun n ->
          let xs = List.init n Fun.id in
          Alcotest.(check (list int))
            (Printf.sprintf "map jobs=%d n=%d" jobs n)
            (List.map (fun x -> (x * x) + 1) xs)
            (Exec.parallel_map ~jobs (fun x -> (x * x) + 1) xs))
        [ 0; 1; 7; 1000 ])
    [ 1; 2; 4 ]

let test_nested () =
  (* A task that itself fans out gets the worker slots its parent left,
     or runs its sub-batch inline, and never deadlocks. *)
  let rows =
    Exec.parallel_map ~jobs:4
      (fun i -> Exec.parallel_map ~jobs:4 (fun j -> i * j) (List.init 10 Fun.id))
      (List.init 10 Fun.id)
  in
  Alcotest.(check (list (list int)))
    "nested map"
    (List.init 10 (fun i -> List.init 10 (fun j -> i * j)))
    rows

let test_exception_determinism () =
  (* Whatever the schedule, the caller sees the lowest-index failure. *)
  for _ = 1 to 20 do
    match
      Exec.parallel_map ~jobs:4
        (fun i -> if i >= 5 then failwith (string_of_int i) else i)
        (List.init 64 Fun.id)
    with
    | _ -> Alcotest.fail "expected an exception"
    | exception Failure m -> Alcotest.(check string) "lowest index wins" "5" m
  done

let test_many_batches () =
  (* Many batches through one process: each spawns its workers, drains
     and joins them. *)
  for round = 1 to 50 do
    Alcotest.(check (list int))
      (Printf.sprintf "round %d" round)
      (List.init 20 (fun i -> i * round))
      (Exec.parallel_map ~jobs:4 (fun i -> i * round) (List.init 20 Fun.id))
  done

(* The most worker domains alive at once: every core but the caller's. *)
let worker_bound = Domain.recommended_domain_count () - 1

let check_no_workers what =
  Alcotest.(check int) (what ^ ": no worker alive") 0 (Exec.live_workers ())

let test_live_workers () =
  (* Workers live for one batch: none is left after a batch returns,
     whether it returned normally, re-raised a task's exception or ran
     nested batches. *)
  check_no_workers "before any batch";
  let peak = Atomic.make 0 in
  let sample () =
    let n = Exec.live_workers () in
    let rec raise_to () =
      let p = Atomic.get peak in
      if n > p && not (Atomic.compare_and_set peak p n) then raise_to ()
    in
    raise_to ()
  in
  ignore
    (Exec.parallel_map ~jobs:4
       (fun x ->
         sample ();
         x)
       (List.init 64 Fun.id));
  check_no_workers "after a normal batch";
  (match
     Exec.parallel_map ~jobs:4
       (fun i -> if i mod 7 = 3 then failwith (string_of_int i) else i)
       (List.init 64 Fun.id)
   with
  | _ -> Alcotest.fail "expected an exception"
  | exception Failure m -> Alcotest.(check string) "lowest index" "3" m);
  check_no_workers "after a re-raised exception";
  ignore
    (Exec.parallel_map ~jobs:4
       (fun i ->
         Exec.parallel_map ~jobs:4
           (fun j ->
             sample ();
             i * j)
           (List.init 8 Fun.id))
       (List.init 8 Fun.id));
  check_no_workers "after a nested batch";
  (* A batch counts its workers before it spawns them, so its own tasks
     see them whenever the host has a core to spare. *)
  Alcotest.(check bool)
    (Printf.sprintf "peak %d in 1..%d" (Atomic.get peak) worker_bound)
    true
    (Atomic.get peak <= worker_bound
    && (worker_bound < 1 || Atomic.get peak >= 1))

let test_concurrent_submitters () =
  (* Two domains submit parallel batches at once: each gets [List.map]'s
     results, and no task sees more live workers than the bound. *)
  let over = Atomic.make 0 in
  let submit k () =
    List.init 20 (fun round ->
        let xs = List.init 32 (fun i -> (k * 1000) + i + round) in
        let f x =
          if Exec.live_workers () > worker_bound then Atomic.incr over;
          (x * x) + 1
        in
        (List.map f xs, Exec.parallel_map ~jobs:4 f xs))
  in
  let other = Domain.spawn (submit 2) in
  let mine = submit 1 () in
  let theirs = Domain.join other in
  List.iter
    (fun (expected, got) ->
      Alcotest.(check (list int)) "concurrent map" expected got)
    (mine @ theirs);
  Alcotest.(check int) "live count above its bound" 0 (Atomic.get over);
  check_no_workers "after both submitters"

let test_budget_concurrent () =
  (* Charges and releases from many domains never corrupt the counter
     and never over-commit. *)
  let b = Harness.Budget.create ~max_bytes:(50 * Harness.Budget.bytes_per_element) in
  ignore
    (Exec.parallel_map ~jobs:4
       (fun _ ->
         match Harness.Budget.charge_elements b 5 with
         | () -> Harness.Budget.release_elements b 5
         | exception Harness.Budget.Overflow _ -> ())
       (List.init 400 Fun.id));
  Alcotest.(check int) "balanced" 0 (Harness.Budget.used_bytes b)

(* ---------- kernel determinism across SAME_JOBS ---------- *)

let case_study_types =
  (Blockdiag.To_netlist.convert Fixtures.Case_study.power_supply_diagram)
    .Blockdiag.To_netlist.block_types

let test_injection_fmea_determinism () =
  let analyse () =
    Fmea.Injection_fmea.analyse ~options:Fixtures.Case_study.injection_options
      ~element_types:case_study_types Fixtures.Case_study.power_supply_netlist
      Fixtures.Case_study.reliability_model
  in
  let baseline = with_jobs 1 analyse in
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d identical" jobs)
        true
        (Fmea.Table.equal baseline (with_jobs jobs analyse)))
    [ 2; 4 ]

let test_search_determinism () =
  let table = Fixtures.Case_study.fmea_via_injection () in
  let sms = Fixtures.Case_study.sm_model in
  let exhaustive () =
    Optimize.Search.exhaustive ~component_types:case_study_types table sms
  in
  let greedy () =
    Optimize.Search.greedy ~component_types:case_study_types
      ~target:Ssam.Requirement.ASIL_B table sms
  in
  let base_ex = with_jobs 1 exhaustive in
  let base_gr = with_jobs 1 greedy in
  Alcotest.(check bool) "exhaustive non-trivial" true (List.length base_ex > 1);
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "exhaustive jobs=%d identical" jobs)
        true
        (List.equal Optimize.Search.equal_candidate base_ex
           (with_jobs jobs exhaustive));
      Alcotest.(check bool)
        (Printf.sprintf "greedy jobs=%d identical" jobs)
        true
        (Optimize.Search.equal_candidate base_gr (with_jobs jobs greedy)))
    [ 2; 4 ]

let test_store_determinism () =
  let spec = { Fixtures.Synthetic.set_name = "det"; target_elements = 5689 } in
  let lazy_eval () = Harness.Lazy_store.evaluate spec in
  let full_eval () =
    let budget = Harness.Budget.create ~max_bytes:(10 * 1024 * 1024) in
    match Harness.Full_store.load ~budget spec with
    | Ok l ->
        let v = Harness.Full_store.evaluate l in
        Harness.Full_store.release ~budget l;
        v
    | Error _ -> Alcotest.fail "load failed"
  in
  let base_lazy = with_jobs 1 lazy_eval in
  let base_full = with_jobs 1 full_eval in
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "lazy jobs=%d identical" jobs)
        true
        (base_lazy = with_jobs jobs lazy_eval);
      Alcotest.(check int)
        (Printf.sprintf "full jobs=%d identical" jobs)
        base_full (with_jobs jobs full_eval))
    [ 2; 4 ]

let test_prepared_classification () =
  (* classify_prepared over a shared golden run agrees with the one-off
     classify_single. *)
  let netlist = Fixtures.Case_study.power_supply_netlist in
  let options = Fixtures.Case_study.injection_options in
  let prepared = Fmea.Injection_fmea.prepare ~options netlist in
  List.iter
    (fun (id, fault) ->
      let via_prepared =
        Fmea.Injection_fmea.classify_prepared prepared ~element_id:id fault
      in
      let via_single =
        Fmea.Injection_fmea.classify_single ~options netlist ~element_id:id
          fault
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s agrees" id)
        true
        (via_prepared = via_single))
    [ ("D1", Circuit.Fault.Short_circuit); ("L1", Circuit.Fault.Open_circuit) ]

(* ---------- SAME_JOBS parsing ---------- *)

(* A malformed SAME_JOBS must keep the documented fallback (ignored) but
   say so once on the Logs warning channel. *)
let test_malformed_same_jobs_warns () =
  let saved = Sys.getenv_opt "SAME_JOBS" in
  (* putenv cannot unset: restore to the recommended-count default, which
     leaves [default_jobs]'s result unchanged when the variable was
     absent. *)
  let restore () =
    Unix.putenv "SAME_JOBS"
      (match saved with
      | Some v -> v
      | None -> string_of_int (Stdlib.max 1 (Domain.recommended_domain_count ())))
  in
  let saved_reporter = Logs.reporter () in
  let saved_level = Logs.level () in
  let warnings = ref [] in
  Logs.set_level (Some Logs.Warning);
  Logs.set_reporter
    {
      Logs.report =
        (fun _src level ~over k msgf ->
          msgf (fun ?header:_ ?tags:_ fmt ->
              Format.kasprintf
                (fun s ->
                  if level = Logs.Warning then warnings := s :: !warnings;
                  over ();
                  k ())
                fmt));
    };
  Fun.protect
    ~finally:(fun () ->
      restore ();
      Logs.set_reporter saved_reporter;
      Logs.set_level saved_level)
    (fun () ->
      Unix.putenv "SAME_JOBS" "three-ish";
      Alcotest.(check (option int))
        "malformed value ignored" None (Exec.env_jobs ());
      Alcotest.(check int) "one warning" 1 (List.length !warnings);
      Alcotest.(check bool) "warning names the value" true
        (let s = List.hd !warnings in
         let nn = String.length "three-ish" in
         let rec at i =
           i + nn <= String.length s
           && (String.sub s i nn = "three-ish" || at (i + 1))
         in
         at 0);
      (* Same malformed value again: no second warning. *)
      ignore (Exec.env_jobs ());
      Alcotest.(check int) "warn once per value" 1 (List.length !warnings);
      (* A well-formed value parses and does not warn. *)
      Unix.putenv "SAME_JOBS" " 4 ";
      Alcotest.(check (option int))
        "well-formed value parsed" (Some 4) (Exec.env_jobs ());
      Alcotest.(check int) "no extra warning" 1 (List.length !warnings))

(* ---------- the cost model's decision policy ---------- *)

let test_cost_decide () =
  let decide ?(jobs = 8) ?(cores = 8) tasks ns =
    Exec.Cost.decide ~tasks ~ns_per_task:ns ~jobs ~cores
  in
  (* 10 tasks x 100 ns: the saving is under a microsecond against a
     2.4 ms budget per worker. *)
  Alcotest.(check bool)
    "tiny batch stays sequential" true
    (decide 10 100.0 = Exec.Cost.Sequential);
  (match decide 1000 1_000_000.0 with
  | Exec.Cost.Parallel { chunk_size } ->
      Alcotest.(check bool) "chunk positive" true (chunk_size >= 1)
  | Exec.Cost.Sequential -> Alcotest.fail "1000 x 1 ms should go parallel");
  (* One worker can never save anything. *)
  Alcotest.(check bool)
    "jobs=1 sequential" true
    (decide ~jobs:1 1_000_000 1e9 = Exec.Cost.Sequential);
  Alcotest.(check bool)
    "one core sequential" true
    (decide ~cores:1 1_000_000 1e9 = Exec.Cost.Sequential);
  (* 15 x 500 us saves 3.75 ms on 2 workers, over the 2.4 ms charge
     for one spawned worker, but 6.6 ms on 8, under the 16.8 ms for
     seven: the workers are [min jobs cores], whichever of the two is
     smaller, and each is charged. *)
  Alcotest.(check bool)
    "8 workers do not clear the charge" true
    (decide 15 500_000.0 = Exec.Cost.Sequential);
  Alcotest.(check bool)
    "2 cores do" true
    (decide ~cores:2 15 500_000.0 <> Exec.Cost.Sequential);
  Alcotest.(check bool)
    "2 jobs do" true
    (decide ~jobs:2 15 500_000.0 <> Exec.Cost.Sequential);
  (* 1,000 x 10 us on two workers and 2,500 on eight clear the charge;
     20 tasks hold ~200 us. *)
  Alcotest.(check bool)
    "chunks sized for two workers" true
    (decide ~cores:2 1_000 10_000.0 = Exec.Cost.Parallel { chunk_size = 20 });
  Alcotest.(check bool)
    "chunks sized for eight workers" true
    (decide 2_500 10_000.0 = Exec.Cost.Parallel { chunk_size = 20 });
  (* A task over 200 us is a chunk of its own. *)
  Alcotest.(check bool)
    "1 ms tasks in chunks of one" true
    (decide ~jobs:4 503 1e6 = Exec.Cost.Parallel { chunk_size = 1 })

let test_cost_decide_monotonic () =
  let tasks = [ 2; 8; 32; 128; 512; 2048 ] in
  let costs = [ 50.0; 500.0; 5_000.0; 50_000.0; 500_000.0 ] in
  List.iter
    (fun cores ->
      let parallel tasks ns =
        match Exec.Cost.decide ~tasks ~ns_per_task:ns ~jobs:4 ~cores with
        | Exec.Cost.Parallel { chunk_size } ->
            Alcotest.(check bool) "chunk >= 1" true (chunk_size >= 1);
            true
        | Exec.Cost.Sequential -> false
      in
      (* More tasks or higher per-task cost never flips a parallel
         verdict back to sequential. *)
      List.iter
        (fun t ->
          List.iter
            (fun c ->
              if parallel t c then begin
                Alcotest.(check bool)
                  (Printf.sprintf "2x tasks keeps parallel (t=%d c=%g cores=%d)"
                     t c cores)
                  true
                  (parallel (2 * t) c);
                Alcotest.(check bool)
                  (Printf.sprintf "2x cost keeps parallel (t=%d c=%g cores=%d)"
                     t c cores)
                  true
                  (parallel t (2.0 *. c))
              end)
            costs)
        tasks)
    [ 1; 2; 4; 8 ]

(* ---------- the pilot and the chunked path ---------- *)

(* A task that costs a known time: it spins on the monotonic clock. *)
let spin_succ ns x =
  let until = Int64.add (Monotonic_clock.now ()) (Int64.of_int ns) in
  while Int64.compare (Monotonic_clock.now ()) until < 0 do
    ()
  done;
  succ x

let last_decision () = List.hd (List.rev (Exec.Cost.decisions ()))

let is_parallel = function
  | Exec.Cost.Parallel _ -> true
  | Exec.Cost.Sequential -> false

(* [scheduled_map] over tasks that each spin [ns]: the logged decision
   must be [Cost.decide] applied to the logged pilot measurement, a
   parallel one on any host with two or more cores whenever the pilot
   leaves two or more tasks, and the output must be [List.map]'s. *)
let scheduled_spin ~key ~jobs ~ns xs =
  let cores = Domain.recommended_domain_count () in
  let ys = Exec.scheduled_map ~jobs ~key (spin_succ ns) xs in
  let r = last_decision () in
  Alcotest.(check string) "logged key" key r.Exec.Cost.d_key;
  let n = List.length xs in
  let rest = n - Exec.Cost.pilot_size ~tasks:n ~jobs ~cores in
  let expected =
    Exec.Cost.decide ~tasks:rest ~ns_per_task:r.Exec.Cost.d_measured_ns ~jobs
      ~cores
  in
  Alcotest.(check bool)
    (Printf.sprintf "%s: logged decision = decide (logged pilot)" key)
    true
    (r.Exec.Cost.d_decision = expected);
  if cores >= 2 && rest >= 2 then
    Alcotest.(check bool)
      (Printf.sprintf "%s: parallel on %d cores" key cores)
      true (is_parallel expected);
  Alcotest.(check (list int))
    (Printf.sprintf "%s: chunked map" key)
    (List.map succ xs) ys

let test_pilot_size () =
  List.iter
    (fun (tasks, jobs, cores, pilot) ->
      Alcotest.(check int)
        (Printf.sprintf "pilot of %d tasks, jobs=%d, cores=%d" tasks jobs cores)
        pilot
        (Exec.Cost.pilot_size ~tasks ~jobs ~cores))
    [
      (100, 1, 8, 100) (* one job: the whole batch, [List.map] *);
      (100, 4, 2, 24);
      (25, 4, 2, 24);
      (24, 4, 2, 6) (* a 1 / 2p share of a short batch *);
      (24, 4, 8, 3) (* p = min jobs cores = 4 *);
      (9, 4, 2, 2);
      (9, 4, 4, 1);
      (4, 4, 2, 1);
      (2, 8, 8, 1);
    ]

let test_small_batches () =
  (* Nine cheap tasks, like the PSU's injection batch: a two-task pilot
     measures them and the seven left do not pay for a worker.  A host
     stall inside the ~10 us pilot can inflate it past the break-even
     (~690 us/task on two workers), so one of three tries must stay
     sequential. *)
  let xs = List.init 9 Fun.id in
  let try_once () =
    let ys =
      Exec.scheduled_map ~jobs:4 ~key:"test.pilot" (spin_succ 5_000) xs
    in
    Alcotest.(check (list int)) "cheap map" (List.map succ xs) ys;
    let r = last_decision () in
    Alcotest.(check string) "logged key" "test.pilot" r.Exec.Cost.d_key;
    Alcotest.(check bool)
      (Printf.sprintf "measured %.0f ns/task >= 4.5 us"
         r.Exec.Cost.d_measured_ns)
      true
      (r.Exec.Cost.d_measured_ns >= 4_500.0);
    r.Exec.Cost.d_decision = Exec.Cost.Sequential
  in
  Alcotest.(check bool)
    "sequential" true
    (try_once () || try_once () || try_once ());
  (* Four ~5 ms tasks, one per job, like a search round: one is the
     pilot and the other three run in parallel. *)
  scheduled_spin ~key:"test.heavy.4" ~jobs:4 ~ns:5_000_000 (List.init 4 Fun.id);
  let cores = Domain.recommended_domain_count () in
  if cores >= 2 then
    Alcotest.(check bool)
      (Printf.sprintf "4 x 5 ms parallel on %d cores" cores)
      true
      (is_parallel (last_decision ()).Exec.Cost.d_decision)

let test_scheduled_chunks () =
  (* 479 tasks after the pilot at 25 us save 9.0 ms on four workers,
     over the 7.2 ms charge for three; 200 us tasks make chunks of one,
     50 us chunks of four and 25 us chunks of eight. *)
  let xs = List.init 503 Fun.id in
  List.iter
    (fun ns ->
      scheduled_spin ~key:(Printf.sprintf "test.chunks.%d" ns) ~jobs:4 ~ns xs)
    [ 200_000; 50_000; 25_000 ]

let test_scheduled_chunks_edges () =
  (* Few tasks, or a remainder after a full pilot fewer than the jobs:
     no empty chunks, no lost or reordered element.  Two 10 ms tasks
     left after the pilot save 17.5 ms on eight workers, over the
     16.8 ms charge for seven. *)
  List.iter
    (fun n ->
      let xs = List.init n Fun.id in
      scheduled_spin
        ~key:(Printf.sprintf "test.chunks.edge.%d" n)
        ~jobs:8 ~ns:10_000_000 xs)
    [ 2; 3; 5; 7; 8; 9; 17; Exec.pilot_tasks + 2; Exec.pilot_tasks + 9 ]

(* [f ()] and the decisions it logged under [key]: each must be
   [decide] of its own pilot, and on two or more cores one must be
   parallel — the caller then compares a real parallel run, not the
   sequential path with itself. *)
let logged_parallel ~key f =
  let batches () =
    let seq, par = Exec.Cost.counters () in
    seq + par
  in
  let b0 = batches () in
  let v = f () in
  let logged = batches () - b0 in
  let ds = Exec.Cost.decisions () in
  let skip = List.length ds - logged in
  let rs =
    List.filteri (fun i _ -> i >= skip) ds
    |> List.filter (fun r -> r.Exec.Cost.d_key = key)
  in
  let cores = Domain.recommended_domain_count () in
  let consistent r =
    let n = r.Exec.Cost.d_tasks and jobs = r.Exec.Cost.d_jobs in
    r.Exec.Cost.d_decision
    = Exec.Cost.decide
        ~tasks:(n - Exec.Cost.pilot_size ~tasks:n ~jobs ~cores)
        ~ns_per_task:r.Exec.Cost.d_measured_ns ~jobs ~cores
  in
  ( v,
    List.for_all consistent rs
    && (cores < 2 || List.exists (fun r -> is_parallel r.Exec.Cost.d_decision) rs)
  )

(* 48 Fig. 11 power supplies in one netlist: 384 injections, so the
   remainder after the pilot is worth a worker even on four cores. *)
let psu_copies = 48

let psu_array =
  Oracle.Scaled.netlist psu_copies Fixtures.Case_study.power_supply_netlist

let prop_auto_equals_seq_fmea =
  QCheck.Test.make ~count:12
    ~name:"injection FMEA: auto scheduling bit-identical to sequential"
    QCheck.(int_range 5 50)
    (fun pct ->
      let options =
        {
          Fmea.Injection_fmea.default_options with
          exclude = List.init psu_copies (Printf.sprintf "DC1_%d");
          threshold_rel = float_of_int pct /. 100.0;
        }
      in
      let analyse () =
        Fmea.Injection_fmea.analyse ~options psu_array
          Fixtures.Case_study.reliability_model
      in
      let sequential = with_jobs 1 analyse in
      List.for_all
        (fun jobs ->
          let table, parallel =
            logged_parallel ~key:Fmea.Injection_fmea.cost_key (fun () ->
                with_jobs jobs analyse)
          in
          Fmea.Table.equal sequential table && parallel)
        [ 2; 4 ])

let test_auto_equals_seq_search () =
  let table = Fixtures.Case_study.fmea_via_injection () in
  let sms = Fixtures.Case_study.sm_model in
  let exhaustive () =
    Optimize.Search.exhaustive ~component_types:case_study_types table sms
  in
  let greedy () =
    Optimize.Search.greedy ~component_types:case_study_types
      ~target:Ssam.Requirement.ASIL_B table sms
  in
  let seq_ex = with_jobs 1 exhaustive in
  let seq_gr = with_jobs 1 greedy in
  (* 131,072 candidates, [~window:32_768]: at four jobs one round of
     sixteen windows of 8,192, each over a millisecond, so the twelve
     after the pilot clear the spawn charge. *)
  let s_table, s_catalogue = Oracle.Scaled.catalogue 8 in
  let streamed () =
    Optimize.Search.exhaustive_fold ~window:32_768 s_table s_catalogue
      ~init:[] ~f:(fun acc c -> c :: acc)
  in
  let seq_streamed = with_jobs 1 streamed in
  Alcotest.(check int) "streamed candidates" 131_072 (List.length seq_streamed);
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "exhaustive auto=seq jobs=%d" jobs)
        true
        (List.equal Optimize.Search.equal_candidate seq_ex
           (with_jobs jobs exhaustive));
      Alcotest.(check bool)
        (Printf.sprintf "greedy auto=seq jobs=%d" jobs)
        true
        (Optimize.Search.equal_candidate seq_gr (with_jobs jobs greedy));
      let auto, parallel =
        logged_parallel ~key:"optimize.search" (fun () ->
            with_jobs jobs streamed)
      in
      Alcotest.(check bool)
        (Printf.sprintf "streamed auto=seq jobs=%d" jobs)
        true
        (List.equal Optimize.Search.equal_candidate seq_streamed auto);
      (* At two jobs a round of eight such windows is close to the
         spawn charge; only four jobs' round is asserted. *)
      if jobs = 4 then
        Alcotest.(check bool) "search windows run in parallel" true parallel)
    [ 2; 4 ]

let suite =
  [
    Alcotest.test_case "parallel map" `Quick test_parallel_map;
    Alcotest.test_case "malformed SAME_JOBS warns" `Quick
      test_malformed_same_jobs_warns;
    Alcotest.test_case "parallel chunks" `Quick test_scheduled_chunks;
    Alcotest.test_case "nested parallelism" `Quick test_nested;
    Alcotest.test_case "exception determinism" `Quick
      test_exception_determinism;
    Alcotest.test_case "many batches" `Quick test_many_batches;
    Alcotest.test_case "live workers" `Quick test_live_workers;
    Alcotest.test_case "concurrent submitters" `Quick
      test_concurrent_submitters;
    Alcotest.test_case "budget under concurrency" `Quick
      test_budget_concurrent;
    Alcotest.test_case "injection FMEA determinism" `Quick
      test_injection_fmea_determinism;
    Alcotest.test_case "search determinism" `Quick test_search_determinism;
    Alcotest.test_case "store determinism" `Quick test_store_determinism;
    Alcotest.test_case "prepared classification" `Quick
      test_prepared_classification;
    Alcotest.test_case "parallel chunks edges" `Quick
      test_scheduled_chunks_edges;
    Alcotest.test_case "cost decide policy" `Quick test_cost_decide;
    Alcotest.test_case "cost decide monotonic" `Quick
      test_cost_decide_monotonic;
    Alcotest.test_case "pilot size" `Quick test_pilot_size;
    Alcotest.test_case "small batches" `Quick test_small_batches;
    QCheck_alcotest.to_alcotest prop_auto_equals_seq_fmea;
    Alcotest.test_case "auto = seq (search)" `Quick test_auto_equals_seq_search;
  ]
