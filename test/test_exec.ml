(* The parallel execution substrate and its central promise: a parallel
   run is bit-identical to the sequential one.  Pool mechanics first,
   then end-to-end determinism of every parallelised kernel at
   SAME_JOBS in {1, 2, 4}, then the incremental SPFM evaluator against
   the reference scorer. *)

let with_jobs n f =
  let saved = Exec.default_jobs () in
  Fun.protect
    ~finally:(fun () -> Exec.set_default_jobs saved)
    (fun () ->
      Exec.set_default_jobs n;
      f ())

(* ---------- pool mechanics ---------- *)

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
  (* A task that itself fans out must run its sub-batch inline rather
     than deadlock on the shared pool. *)
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

let test_pool_reuse () =
  (* Many batches through one pool: workers wake, drain and sleep again. *)
  let pool = Exec.Pool.create ~jobs:4 in
  Fun.protect
    ~finally:(fun () -> Exec.Pool.shutdown pool)
    (fun () ->
      Alcotest.(check int) "jobs" 4 (Exec.Pool.jobs pool);
      for round = 1 to 50 do
        let out = Array.make 20 0 in
        Exec.Pool.run pool 20 (fun i -> out.(i) <- i * round);
        Alcotest.(check (array int))
          (Printf.sprintf "round %d" round)
          (Array.init 20 (fun i -> i * round))
          out
      done)

let test_budget_concurrent () =
  (* Charges and releases from many domains never corrupt the counter
     and never over-commit. *)
  let b = Store.Budget.create ~max_bytes:(50 * Store.Budget.bytes_per_element) in
  ignore
    (Exec.parallel_map ~jobs:4
       (fun _ ->
         match Store.Budget.charge_elements b 5 with
         | () -> Store.Budget.release_elements b 5
         | exception Store.Budget.Overflow _ -> ())
       (List.init 400 Fun.id));
  Alcotest.(check int) "balanced" 0 (Store.Budget.used_bytes b)

(* ---------- kernel determinism across SAME_JOBS ---------- *)

let case_study_types =
  (Blockdiag.To_netlist.convert Decisive.Case_study.power_supply_diagram)
    .Blockdiag.To_netlist.block_types

let test_injection_fmea_determinism () =
  let analyse () =
    Fmea.Injection_fmea.analyse ~options:Decisive.Case_study.injection_options
      ~element_types:case_study_types Decisive.Case_study.power_supply_netlist
      Decisive.Case_study.reliability_model
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
  let table = Decisive.Case_study.fmea_via_injection () in
  let sms = Decisive.Case_study.sm_model in
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
  let spec = { Store.Synthetic.set_name = "det"; target_elements = 5689 } in
  let lazy_eval () = Store.Lazy_store.evaluate spec in
  let full_eval () =
    let budget = Store.Budget.create ~max_bytes:(10 * 1024 * 1024) in
    match Store.Full_store.load ~budget spec with
    | Ok l ->
        let v = Store.Full_store.evaluate l in
        Store.Full_store.release ~budget l;
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
  let netlist = Decisive.Case_study.power_supply_netlist in
  let options = Decisive.Case_study.injection_options in
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

(* ---------- incremental evaluator vs the reference scorer ---------- *)

let prop_incremental_evaluator =
  let table = Decisive.Case_study.fmea_via_injection () in
  let slots =
    Optimize.Search.slots ~component_types:case_study_types table
      Decisive.Case_study.sm_model
  in
  let ev = Optimize.Search.make_evaluator table in
  let n_slots = List.length slots in
  QCheck.Test.make ~count:100
    ~name:"incremental evaluator matches Fmeda.apply + Metrics.spfm"
    QCheck.(list_of_size (QCheck.Gen.return n_slots) (int_range 0 1000))
    (fun picks ->
      (* One pick per slot: modulo chooses a mechanism or "deploy
         nothing", like the exhaustive expansion does. *)
      let deployments =
        List.concat
          (List.map2
             (fun (s : Optimize.Search.slot) pick ->
               let n = List.length s.Optimize.Search.slot_options in
               match pick mod (n + 1) with
               | 0 -> []
               | k ->
                   [
                     Fmea.Fmeda.deploy
                       ~component:s.Optimize.Search.slot_component
                       ~failure_mode:s.Optimize.Search.slot_failure_mode
                       (List.nth s.Optimize.Search.slot_options (k - 1));
                   ])
             slots picks)
      in
      Optimize.Search.equal_candidate
        (Optimize.Search.evaluate table deployments)
        (Optimize.Search.evaluate_with ev deployments))

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

let with_pinned_cost f =
  let saved_overhead = Exec.Cost.dispatch_overhead_ns () in
  Fun.protect
    ~finally:(fun () ->
      Exec.Cost.set_assumed_cores None;
      Exec.Cost.set_dispatch_overhead_ns saved_overhead)
    (fun () ->
      Exec.Cost.set_assumed_cores (Some 8);
      Exec.Cost.set_dispatch_overhead_ns 50_000.0;
      f ())

let test_cost_decide () =
  with_pinned_cost (fun () ->
      let est ns = { Exec.Cost.ns_per_task = ns; samples = 4 } in
      (* 10 tasks x 100 ns: the saving is under a microsecond against a
         100 us overhead budget. *)
      Alcotest.(check bool)
        "tiny batch stays sequential" true
        (Exec.Cost.decide ~tasks:10 ~cost:(est 100.0) ~jobs:8
        = Exec.Cost.Sequential);
      (match Exec.Cost.decide ~tasks:1000 ~cost:(est 1_000_000.0) ~jobs:8 with
      | Exec.Cost.Parallel { chunk_size } ->
          Alcotest.(check bool) "chunk positive" true (chunk_size >= 1)
      | Exec.Cost.Sequential ->
          Alcotest.fail "1000 x 1 ms should go parallel");
      (* One worker can never save anything. *)
      Alcotest.(check bool)
        "jobs=1 sequential" true
        (Exec.Cost.decide ~tasks:1_000_000 ~cost:(est 1e9) ~jobs:1
        = Exec.Cost.Sequential))

let test_cost_decide_monotonic () =
  with_pinned_cost (fun () ->
      let parallel tasks ns =
        match
          Exec.Cost.decide ~tasks
            ~cost:{ Exec.Cost.ns_per_task = ns; samples = 3 }
            ~jobs:4
        with
        | Exec.Cost.Parallel _ -> true
        | Exec.Cost.Sequential -> false
      in
      let tasks = [ 2; 8; 32; 128; 512; 2048 ] in
      let costs = [ 50.0; 500.0; 5_000.0; 50_000.0; 500_000.0 ] in
      (* More tasks or higher per-task cost never flips a parallel
         verdict back to sequential. *)
      List.iter
        (fun t ->
          List.iter
            (fun c ->
              if parallel t c then begin
                Alcotest.(check bool)
                  (Printf.sprintf "2x tasks keeps parallel (t=%d c=%g)" t c)
                  true
                  (parallel (2 * t) c);
                Alcotest.(check bool)
                  (Printf.sprintf "2x cost keeps parallel (t=%d c=%g)" t c)
                  true
                  (parallel t (2.0 *. c))
              end;
              Alcotest.(check bool)
                "chunk >= 1" true
                (Exec.Cost.chunk_for ~tasks:t ~jobs:4 c >= 1))
            costs)
        tasks)

(* ---------- cost-state export/import round-trip ---------- *)

let test_cost_state_roundtrip () =
  let saved_overhead = Exec.Cost.dispatch_overhead_ns () in
  Fun.protect
    ~finally:(fun () ->
      Exec.Cost.set_dispatch_overhead_ns saved_overhead;
      Exec.Cost.reset ())
    (fun () ->
      Exec.Cost.reset ();
      Exec.Cost.set_dispatch_overhead_ns 12_345.0;
      Exec.Cost.observe ~key:"rt.a" ~tasks:10 1_000_000.0;
      Exec.Cost.observe ~key:"rt.a" ~tasks:10 2_000_000.0;
      Exec.Cost.observe ~key:"rt.b" ~tasks:4 80_000.0;
      let before_a = Option.get (Exec.Cost.estimate ~key:"rt.a") in
      let state = Exec.Cost.export () in
      Exec.Cost.reset ();
      Alcotest.(check bool)
        "estimates cleared" true
        (Exec.Cost.estimate ~key:"rt.a" = None);
      Alcotest.(check bool) "import succeeds" true (Exec.Cost.import state);
      let after_a = Option.get (Exec.Cost.estimate ~key:"rt.a") in
      Alcotest.(check (float 1e-9))
        "ns/task preserved" before_a.Exec.Cost.ns_per_task
        after_a.Exec.Cost.ns_per_task;
      Alcotest.(check int)
        "samples preserved" before_a.Exec.Cost.samples
        after_a.Exec.Cost.samples;
      Alcotest.(check (float 1e-9))
        "overhead preserved" 12_345.0
        (Exec.Cost.dispatch_overhead_ns ());
      Alcotest.(check bool)
        "second key restored" true
        (Exec.Cost.estimate ~key:"rt.b" <> None);
      Alcotest.(check bool)
        "malformed state rejected" false
        (Exec.Cost.import "garbage"))

(* ---------- auto scheduling is bit-identical to sequential ---------- *)

(* Pin 8 cores and a near-zero overhead so the scheduler genuinely takes
   parallel decisions whatever the host's real core count, then require
   the result to equal the one-job (sequential) one. *)
let with_eager_auto f =
  let saved_overhead = Exec.Cost.dispatch_overhead_ns () in
  Fun.protect
    ~finally:(fun () ->
      Exec.Cost.set_assumed_cores None;
      Exec.Cost.set_dispatch_overhead_ns saved_overhead)
    (fun () ->
      Exec.Cost.set_assumed_cores (Some 8);
      Exec.Cost.set_dispatch_overhead_ns 1_000.0;
      f ())

(* [scheduled_map] under a fresh key whose estimate is seeded at
   [ns_per_task]: the batch must go to the pool in chunks of the size
   [Cost.decide] picks, and the decision log must say so.  Returns the
   mapped list and the chunk size. *)
let scheduled_chunks ~key ~jobs ~ns_per_task xs =
  Exec.Cost.observe ~key ~tasks:1 ns_per_task;
  let ys = Exec.scheduled_map ~jobs ~key succ xs in
  let last = List.hd (List.rev (Exec.Cost.decisions ())) in
  match
    Exec.Cost.decide ~tasks:(List.length xs)
      ~cost:{ Exec.Cost.ns_per_task; samples = 1 }
      ~jobs
  with
  | Exec.Cost.Sequential -> Alcotest.failf "%s: expected a parallel batch" key
  | Exec.Cost.Parallel { chunk_size } as expected ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: logged decision" key)
        true
        (last.Exec.Cost.d_key = key && last.Exec.Cost.d_decision = expected);
      (ys, chunk_size)

let test_scheduled_chunks () =
  with_eager_auto (fun () ->
      let xs = List.init 503 Fun.id in
      List.iter
        (fun (ns, expected_chunk) ->
          let key = Printf.sprintf "test.chunks.%g" ns in
          let ys, chunk = scheduled_chunks ~key ~jobs:4 ~ns_per_task:ns xs in
          Alcotest.(check int)
            (Printf.sprintf "chunk size at %g ns/task" ns)
            expected_chunk chunk;
          Alcotest.(check (list int))
            (Printf.sprintf "chunked map at %g ns/task" ns)
            (List.map succ xs) ys)
        (* ~200 us of work per chunk, at most 503 / (2 * 4) = 62. *)
        [ (1e6, 1); (1e4, 20); (2e3, 62) ])

let test_scheduled_chunks_edges () =
  (* More jobs than elements: no empty chunks, no lost or reordered
     element. *)
  with_eager_auto (fun () ->
      List.iter
        (fun n ->
          let xs = List.init n Fun.id in
          let key = Printf.sprintf "test.chunks.edge.%d" n in
          let ys, _ = scheduled_chunks ~key ~jobs:8 ~ns_per_task:1e6 xs in
          Alcotest.(check (list int))
            (Printf.sprintf "jobs=8 n=%d" n)
            (List.map succ xs) ys)
        [ 2; 3; 5; 7; 8; 9; 17 ])

let prop_auto_equals_seq_fmea =
  QCheck.Test.make ~count:12
    ~name:"injection FMEA: auto scheduling bit-identical to sequential"
    QCheck.(int_range 5 50)
    (fun pct ->
      let options =
        {
          Decisive.Case_study.injection_options with
          Fmea.Injection_fmea.threshold_rel = float_of_int pct /. 100.0;
        }
      in
      let analyse () =
        Fmea.Injection_fmea.analyse ~options ~element_types:case_study_types
          Decisive.Case_study.power_supply_netlist
          Decisive.Case_study.reliability_model
      in
      let sequential = with_jobs 1 analyse in
      with_eager_auto (fun () ->
          List.for_all
            (fun jobs -> Fmea.Table.equal sequential (with_jobs jobs analyse))
            [ 2; 4 ]))

let test_auto_equals_seq_search () =
  let table = Decisive.Case_study.fmea_via_injection () in
  let sms = Decisive.Case_study.sm_model in
  let exhaustive () =
    Optimize.Search.exhaustive ~component_types:case_study_types table sms
  in
  let greedy () =
    Optimize.Search.greedy ~component_types:case_study_types
      ~target:Ssam.Requirement.ASIL_B table sms
  in
  let seq_ex = with_jobs 1 exhaustive in
  let seq_gr = with_jobs 1 greedy in
  with_eager_auto (fun () ->
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
            (Optimize.Search.equal_candidate seq_gr (with_jobs jobs greedy)))
        [ 2; 4 ])

let suite =
  [
    Alcotest.test_case "parallel map" `Quick test_parallel_map;
    Alcotest.test_case "malformed SAME_JOBS warns" `Quick
      test_malformed_same_jobs_warns;
    Alcotest.test_case "parallel chunks" `Quick test_scheduled_chunks;
    Alcotest.test_case "nested parallelism" `Quick test_nested;
    Alcotest.test_case "exception determinism" `Quick
      test_exception_determinism;
    Alcotest.test_case "pool reuse" `Quick test_pool_reuse;
    Alcotest.test_case "budget under concurrency" `Quick
      test_budget_concurrent;
    Alcotest.test_case "injection FMEA determinism" `Quick
      test_injection_fmea_determinism;
    Alcotest.test_case "search determinism" `Quick test_search_determinism;
    Alcotest.test_case "store determinism" `Quick test_store_determinism;
    Alcotest.test_case "prepared classification" `Quick
      test_prepared_classification;
    QCheck_alcotest.to_alcotest prop_incremental_evaluator;
    Alcotest.test_case "parallel chunks edges" `Quick
      test_scheduled_chunks_edges;
    Alcotest.test_case "cost decide policy" `Quick test_cost_decide;
    Alcotest.test_case "cost decide monotonic" `Quick
      test_cost_decide_monotonic;
    Alcotest.test_case "cost state round-trip" `Quick
      test_cost_state_roundtrip;
    QCheck_alcotest.to_alcotest prop_auto_equals_seq_fmea;
    Alcotest.test_case "auto = seq (search)" `Quick test_auto_equals_seq_search;
  ]
