(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation, printing paper-reported values next to measured
   ones, then runs one Bechamel micro-benchmark per analysis kernel.

   Environment:
     SAME_BENCH_FULL=1   run Table VI at the paper's full set sizes
                         (Set4 = 5.7M elements; several minutes).  The
                         default scales Set4/Set5 (and the memory budget)
                         by 1/100, which preserves the overflow behaviour
                         and the growth shape.

   Exit status 1 when a gate the harness enforces itself fails (see
   [gate]: the path-FMEA, assess and scaling sections); the other
   sections' gates are checked by the CI scripts on BENCH_results.json. *)

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Machine-readable results, accumulated by each section and written to
   BENCH_results.json at the end (format documented in EXPERIMENTS.md). *)

let json_kernels : (string * float) list ref = ref []
let json_tables : (string * float) list ref = ref []
let json_parallel : Modelio.Json.t list ref = ref []
let json_incremental : Modelio.Json.t list ref = ref []
let json_scaling : Modelio.Json.t list ref = ref []
let json_path_fmea : Modelio.Json.t list ref = ref []
let json_batch : Modelio.Json.t list ref = ref []
let json_diagnosis : Modelio.Json.t list ref = ref []
let json_fta : Modelio.Json.t list ref = ref []

let json_assess : Modelio.Json.t list ref = ref []
let json_serve : Modelio.Json.t list ref = ref []

let record_timing name seconds = json_tables := (name, seconds) :: !json_tables

(* Gates the harness enforces itself: each failure is reported on stderr
   after BENCH_results.json is written, and the run exits 1. *)
let gate_failures : string list ref = ref []

let gate ok fmt =
  Printf.ksprintf
    (fun m -> if not ok then gate_failures := m :: !gate_failures)
    fmt

let json_of_decision (r : Exec.Cost.record) =
  let open Modelio.Json in
  let opt_ns = function Some ns -> Number ns | None -> Null in
  Object
    [
      ("key", String r.Exec.Cost.d_key);
      ("tasks", Number (float_of_int r.Exec.Cost.d_tasks));
      ("jobs", Number (float_of_int r.Exec.Cost.d_jobs));
      ( "decision",
        match r.Exec.Cost.d_decision with
        | Exec.Cost.Sequential -> String "sequential"
        | Exec.Cost.Parallel _ -> String "parallel" );
      ( "chunk_size",
        match r.Exec.Cost.d_decision with
        | Exec.Cost.Sequential -> Null
        | Exec.Cost.Parallel { chunk_size } ->
            Number (float_of_int chunk_size) );
      ("estimate_ns_per_task", opt_ns r.Exec.Cost.d_estimate_ns);
      ("measured_ns_per_task", opt_ns r.Exec.Cost.d_measured_ns);
    ]

let write_results () =
  let open Modelio.Json in
  let numbers l = Object (List.rev_map (fun (n, v) -> (n, Number v)) l) in
  let j =
    Object
      [
        ("schema", String "same-bench/1");
        ("jobs", Number (float_of_int (Exec.default_jobs ())));
        ( "cores",
          Number (float_of_int (Domain.recommended_domain_count ())) );
        ( "dispatch_overhead_ns",
          Number (Exec.Cost.dispatch_overhead_ns ()) );
        ("table_timings_s", numbers !json_tables);
        ("parallel", List (List.rev !json_parallel));
        ("batch_fmea", List (List.rev !json_batch));
        ("incremental", List (List.rev !json_incremental));
        ("scaling", List (List.rev !json_scaling));
        ("path_fmea", List (List.rev !json_path_fmea));
        ("diagnosis", List (List.rev !json_diagnosis));
        ("fta", List (List.rev !json_fta));
        ("assess", List (List.rev !json_assess));
        ("serve", List (List.rev !json_serve));
        ("scheduler", List (List.map json_of_decision (Exec.Cost.decisions ())));
        ("kernels_ns_per_run", numbers !json_kernels);
      ]
  in
  write_file ~indent:2 "BENCH_results.json" j;
  Printf.printf "\nresults written to BENCH_results.json\n"

(* ---------- Table I: FMEDA on a PLL ---------- *)

let table1 () =
  section "Table I — FMEDA on Phase Locked Loop (PLL)";
  let t = Decisive.Case_study.pll_fmeda ~fit:50.0 in
  Format.printf "%a@." Fmea.Table.pp t;
  Printf.printf
    "paper rows: lower frequency DVF 40.1%% (watchdog 70%%), higher \
     frequency IVF 28.7%% (none), jitter DVF 31.2%% (lockstep 99%%)\n";
  List.iter
    (fun (r : Decisive.Case_study.pll_row) ->
      Printf.printf "measured: %-16s %-4s %5.1f%%  %-18s %5.1f%%\n"
        r.Decisive.Case_study.pll_fm r.Decisive.Case_study.pll_impact
        r.Decisive.Case_study.pll_distribution
        (Option.value ~default:"N/A" r.Decisive.Case_study.pll_sm)
        r.Decisive.Case_study.pll_coverage)
    Decisive.Case_study.pll_rows

(* ---------- Table II: component reliability model ---------- *)

let table2 () =
  section "Table II — component reliability model (federated from a spreadsheet)";
  let path = Filename.temp_file "table2" ".csv" in
  let wb = Reliability.Reliability_model.to_spreadsheet Reliability.Reliability_model.table_ii in
  let sheet = Modelio.Spreadsheet.first_sheet wb in
  Modelio.Csv.write_file path
    (sheet.Modelio.Spreadsheet.table.Modelio.Csv.header
    :: sheet.Modelio.Spreadsheet.table.Modelio.Csv.rows);
  (* Load it back through the driver + query route (the federation path). *)
  let model = Modelio.Driver.resolve ~model_type:"csv" ~location:path ~metadata:[] in
  let env = Query.Interp.env_of_models [ ("Reliability", model) ] in
  let total =
    Query.Interp.run_string env
      "Reliability.rows.select(r | r.fit <> '').collect(r | r.fit.toNumber()).sum()"
  in
  let reparsed =
    Reliability.Reliability_model.of_spreadsheet (Modelio.Spreadsheet.load path)
  in
  Sys.remove path;
  List.iter
    (fun (e : Reliability.Reliability_model.entry) ->
      Printf.printf "%-16s %5g FIT   %s\n" e.Reliability.Reliability_model.component_type
        e.Reliability.Reliability_model.fit
        (String.concat ", "
           (List.map
              (fun (fm : Reliability.Reliability_model.failure_mode) ->
                Printf.sprintf "%s %g%%" fm.Reliability.Reliability_model.fm_name
                  fm.Reliability.Reliability_model.distribution_pct)
              e.Reliability.Reliability_model.failure_modes)))
    (Reliability.Reliability_model.entries reparsed);
  Format.printf "federated query (total FIT across the catalogue): %a (paper sums to 327)@."
    Modelio.Mvalue.pp total

(* ---------- Table III: safety mechanism model ---------- *)

let table3 () =
  section "Table III — safety mechanism model";
  List.iter
    (fun (m : Reliability.Sm_model.mechanism) ->
      Printf.printf "%-6s %-12s %-20s %5.1f%%  %.1f h\n"
        m.Reliability.Sm_model.component_type m.Reliability.Sm_model.failure_mode
        m.Reliability.Sm_model.sm_name m.Reliability.Sm_model.coverage_pct
        m.Reliability.Sm_model.cost)
    (Reliability.Sm_model.mechanisms Reliability.Sm_model.table_iii);
  Printf.printf "paper: MCU / RAM Failure / ECC / 99%% / 2.0 h\n"

(* ---------- Table IV + SPFM: the case study ---------- *)

let table4 () =
  section "Table IV — generated FMEDA for the sensor power supply";
  let before, t_before = timed Decisive.Case_study.fmea_via_injection in
  let spfm_before = Fmea.Metrics.spfm before in
  let after = Decisive.Case_study.fmeda before in
  let spfm_after = Fmea.Metrics.spfm after in
  Format.printf "%a@." Fmea.Table.pp after;
  Printf.printf "SPFM before refinement: paper 5.38%%, measured %.2f%%\n" spfm_before;
  Printf.printf "SPFM with ECC on MC1:   paper 96.77%%, measured %.2f%%\n" spfm_after;
  Format.printf "verdict: %a@."
    (fun ppf () ->
      Fmea.Asil.pp_verdict ppf ~target:Ssam.Requirement.ASIL_B ~spfm:spfm_after)
    ();
  record_timing "table4/injection-fmea" t_before;
  (* Both analysis routes (Sec. V-A circuit, Sec. V-B SSAM) agree. *)
  let ssam_route, t_ssam = timed Decisive.Case_study.fmea_via_ssam in
  record_timing "table4/ssam-route" t_ssam;
  Printf.printf
    "routes agree on safety-related components: %b (injection %.1f ms, \
     SSAM paths %.1f ms)\n"
    (List.sort String.compare (Fmea.Table.safety_related_components before)
    = List.sort String.compare (Fmea.Table.safety_related_components ssam_route))
    (1000.0 *. t_before) (1000.0 *. t_ssam);
  (* And the FTA cross-check (HiP-HOPS-style baseline). *)
  let fta_table, t_fta =
    timed (fun () -> Fta.Fmea_from_fta.analyse Decisive.Case_study.power_supply_root)
  in
  record_timing "table4/fta-route" t_fta;
  Printf.printf "FTA-route cross-check agrees: %b (%.1f ms)\n"
    (List.sort String.compare (Fmea.Table.safety_related_components fta_table)
    = List.sort String.compare (Fmea.Table.safety_related_components before))
    (1000.0 *. t_fta)

(* ---------- Table V: efficiency (RQ3) ---------- *)

let table5 () =
  section "Table V — efficiency experiment (simulated analyst study)";
  let pa = Decisive.Systems.analyst_profile Decisive.Systems.system_a in
  let pb = Decisive.Systems.analyst_profile Decisive.Systems.system_b in
  let rows = Analyst.Experiment.efficiency_study ~seed:2022 ~systems:(pa, pb) in
  Format.printf "%a@." Analyst.Experiment.pp_efficiency rows;
  Printf.printf
    "paper setting 1: A man 505/5, B auto 62/2 (System A); A man 1143/6, \
     B auto 105/3 (System B)\n";
  Printf.printf
    "paper setting 2: A auto 57/6, B man 497/3 (System A); A auto 110/4, \
     B man 1166/2 (System B)\n";
  Printf.printf "speedup: paper ~10x, measured %.1fx\n"
    (Analyst.Experiment.speedup rows)

(* ---------- RQ1: correctness ---------- *)

let rq1 () =
  section "RQ1 — correctness (manual vs automated FMEA)";
  let ta = Decisive.Systems.automated_fmea Decisive.Systems.system_a in
  let tb = Decisive.Systems.automated_fmea Decisive.Systems.system_b in
  let ca = Analyst.Experiment.correctness_study ~seed:20 ~name:"System A" ~element_count:102 ta in
  let cb = Analyst.Experiment.correctness_study ~seed:21 ~name:"System B" ~element_count:230 tb in
  Printf.printf "System A: paper 1.5%% difference, measured %.2f%% (components agree: %b)\n"
    ca.Analyst.Experiment.difference_pct ca.Analyst.Experiment.components_agree;
  Printf.printf "System B: paper 2.67%% difference, measured %.2f%% (components agree: %b)\n"
    cb.Analyst.Experiment.difference_pct cb.Analyst.Experiment.components_agree

(* ---------- RQ2: coverage ---------- *)

let rq2 () =
  section "RQ2 — block-library coverage";
  let report name (d : Blockdiag.Diagram.t) =
    let types =
      List.map
        (fun (b : Blockdiag.Diagram.block) -> b.Blockdiag.Diagram.block_type)
        (Blockdiag.Diagram.all_blocks d)
    in
    let r = Circuit.Library.coverage types in
    Printf.printf "%-24s coverage %.1f%% (native %d, work-around %d, unsupported %d)\n"
      name r.Circuit.Library.coverage_pct
      (List.length r.Circuit.Library.native)
      (List.length r.Circuit.Library.via_workaround)
      (List.length r.Circuit.Library.unsupported)
  in
  report "power supply (Fig. 11)" Decisive.Case_study.power_supply_diagram;
  report "System A" Decisive.Systems.system_a.Decisive.Systems.diagram;
  report "System B" Decisive.Systems.system_b.Decisive.Systems.diagram;
  Printf.printf
    "paper: 100%% of the evaluation subjects covered (work-arounds for \
     complex MCUs)\n"

(* ---------- Table VI: scalability (RQ4) ---------- *)

let table6 () =
  section "Table VI — scalability of the model store";
  let full = Sys.getenv_opt "SAME_BENCH_FULL" = Some "1" in
  let scale = if full then 1 else 100 in
  if not full then
    Printf.printf
      "(Set4/Set5 and the memory budget scaled by 1/%d; set SAME_BENCH_FULL=1 \
       for full sizes)\n"
      scale;
  let budget_bytes =
    (* The paper-era JVM heap, scaled with the sets. *)
    4 * 1024 * 1024 * 1024 / scale
  in
  Printf.printf "%-6s %15s %15s %15s %15s %s\n" "Set" "elements"
    "full store (s)" "lazy store (s)" "auto (s)" "paper (s)";
  let paper_times = [ 0.1; 0.2; 0.8; 4.1; 48.3; nan ] in
  List.iteri
    (fun i spec ->
      let spec =
        if i >= 4 then Store.Synthetic.scaled spec ~factor:scale else spec
      in
      let budget = Store.Budget.create ~max_bytes:budget_bytes in
      let full_result, t_full =
        timed (fun () ->
            match Store.Full_store.load ~budget spec with
            | Ok loaded ->
                let verdicts = Store.Full_store.evaluate loaded in
                Store.Full_store.release ~budget loaded;
                `Ok verdicts
            | Error (`Memory_overflow _) -> `Overflow)
      in
      let lazy_result, t_lazy =
        timed (fun () ->
            match Store.Lazy_store.evaluate spec with
            | Ok (_, sr) -> `Ok sr
            | Error _ -> `Overflow)
      in
      (* [`Auto] should track the winner: the cost model's estimate for
         the lazy windows decides whether streaming pays on this set. *)
      let auto_budget = Store.Budget.create ~max_bytes:budget_bytes in
      let auto_choice = Store.Backend.choose ~budget:auto_budget spec in
      let auto_result, t_auto =
        timed (fun () ->
            match
              Store.Backend.evaluate ~backend:`Auto ~budget:auto_budget spec
            with
            | Ok (_, sr) -> `Ok sr
            | Error _ -> `Overflow)
      in
      let cell result t =
        match result with
        | `Ok _ -> Printf.sprintf "%15.3f" t
        | `Overflow -> Printf.sprintf "%15s" "N/A (overflow)"
      in
      let record kind result t =
        match result with
        | `Ok _ ->
            record_timing
              (Printf.sprintf "table6/%s/%s" spec.Store.Synthetic.set_name
                 kind)
              t
        | `Overflow -> ()
      in
      record "full" full_result t_full;
      record "lazy" lazy_result t_lazy;
      record "auto" auto_result t_auto;
      (match (full_result, lazy_result, auto_result) with
      | `Ok f, `Ok l, `Ok a when f <> a || l <> a ->
          Printf.printf
            "WARNING: backend verdicts disagree on %s (full %d, lazy %d, \
             auto %d)\n"
            spec.Store.Synthetic.set_name f l a
      | _ -> ());
      let paper = List.nth paper_times i in
      Printf.printf "%-6s %15d %s %s %s [%s] %s\n"
        spec.Store.Synthetic.set_name spec.Store.Synthetic.target_elements
        (cell full_result t_full) (cell lazy_result t_lazy)
        (cell auto_result t_auto)
        (match auto_choice with `Full -> "full" | `Lazy -> "lazy")
        (if Float.is_nan paper then "N/A (overflow)" else Printf.sprintf "%.1f" paper))
    Store.Synthetic.table_vi_sets;
  Printf.printf
    "shape check: the full store grows linearly and dies at Set5 (the \
     paper's EMF memory overflow); the streaming store (the paper's \
     future-work fix) completes every set; auto streams only when the \
     cost model says the windows pay for their dispatch.\n"

(* ---------- Step 4b ablation: search strategies ---------- *)

let ablation_search () =
  section "Ablation — Step 4b search strategies (exhaustive vs greedy)";
  let subject = Decisive.Systems.system_a in
  let table = Decisive.Systems.automated_fmea subject in
  let conv = Decisive.Systems.analysable subject in
  let types = conv.Blockdiag.To_netlist.block_types in
  let sms = subject.Decisive.Systems.safety_mechanisms in
  let (chosen, front), t_ex =
    timed (fun () ->
        Optimize.Search.optimise ~component_types:types
          ~target:Ssam.Requirement.ASIL_B table sms)
  in
  let greedy, t_gr =
    timed (fun () ->
        Optimize.Search.greedy ~component_types:types
          ~target:Ssam.Requirement.ASIL_B table sms)
  in
  record_timing "ablation/search-exhaustive" t_ex;
  record_timing "ablation/search-greedy" t_gr;
  (match chosen with
  | Some c ->
      Printf.printf
        "exhaustive: SPFM %.2f%% at cost %.1f h (Pareto front of %d) in %.1f ms\n"
        c.Optimize.Search.spfm_pct c.Optimize.Search.cost (List.length front)
        (1000.0 *. t_ex)
  | None -> Printf.printf "exhaustive: no solution meets ASIL-B\n");
  Printf.printf "greedy:     SPFM %.2f%% at cost %.1f h in %.1f ms\n"
    greedy.Optimize.Search.spfm_pct greedy.Optimize.Search.cost (1000.0 *. t_gr);
  (match chosen with
  | Some c ->
      Printf.printf "greedy cost overhead vs optimal: %+.1f h\n"
        (greedy.Optimize.Search.cost -. c.Optimize.Search.cost)
  | None -> ())

(* ---------- Time-domain ablation: why the capacitors are in Fig. 11 ---------- *)

let ablation_ripple () =
  section "Ablation — time-domain role of the filter capacitors";
  Printf.printf
    "The DC failure-injection FMEA classifies C1/C2 failures as not \
     safety-related (Table IV); the transient engine shows what they do \
     in the time domain (1 kHz, 0.5 V supply ripple injected on DC1):\n";
  let base_elements c2 =
    let open Circuit in
    [
      Element.make ~id:"DC1" ~kind:(Element.Vsource 5.0) "n1" "gnd";
      Element.make ~id:"D1" ~kind:(Element.Diode Element.default_diode) "n1" "n2";
      Element.make ~id:"L1" ~kind:(Element.Inductor 1e-3) "n2" "n3";
      Element.make ~id:"CS1" ~kind:Element.Current_sensor "n3" "n4";
      Element.make ~id:"MC1" ~kind:(Element.Load 100.0) "n4" "gnd";
    ]
    @
    if c2 then [ Element.make ~id:"C2" ~kind:(Element.Capacitor 1e-4) "n3" "gnd" ]
    else []
  in
  let wave t = 5.0 +. (0.5 *. sin (2.0 *. Float.pi *. 1000.0 *. t)) in
  let measure label c2 =
    let nl = Circuit.Netlist.of_elements "psu" (base_elements c2) in
    match
      Circuit.Transient.simulate ~waveforms:[ ("DC1", wave) ] nl ~dt:2e-6
        ~duration:1e-2
    with
    | Ok r ->
        Printf.printf "  %-14s CS1 ripple %8.4f mA\n" label
          (1000.0 *. Circuit.Transient.ripple (Circuit.Transient.sensor_trace r "CS1"))
    | Error e -> Format.printf "  %-14s error: %a@." label Circuit.Dc.pp_error e
  in
  measure "with C2" true;
  measure "C2 open" false;
  Printf.printf
    "conclusion: a C2 open degrades ripple rejection but does not break \
     the DC function — consistent with 'No' in Table IV and with why the \
     capacitor is in the design at all.\n\n";
  Printf.printf "Automated degradation findings (5 kHz supply disturbance):\n";
  let conv = Blockdiag.To_netlist.convert Decisive.Case_study.power_supply_diagram in
  let options = Fmea.Degradation.default_options ~disturbance_source:"DC1" in
  let findings =
    Fmea.Degradation.analyse
      ~element_types:conv.Blockdiag.To_netlist.block_types ~options
      conv.Blockdiag.To_netlist.netlist Decisive.Case_study.reliability_model
  in
  Format.printf "%a@." Fmea.Degradation.pp_findings findings

(* ---------- Ablation: the classification threshold ---------- *)

let ablation_threshold () =
  section "Ablation — sensitivity of the injection FMEA to its threshold";
  Printf.printf
    "The paper marks a failure safety-related when a sensor reading \
     'differs by a threshold'.  Sweeping that threshold shows where \
     verdicts flip (D1's short moves CS1 by ~15%%):\n";
  let conv = Blockdiag.To_netlist.convert Decisive.Case_study.power_supply_diagram in
  Printf.printf "  %-10s %s\n" "threshold" "safety-related failure modes";
  List.iter
    (fun threshold_rel ->
      let options =
        {
          Fmea.Injection_fmea.default_options with
          exclude = [ "DC1" ];
          threshold_rel;
        }
      in
      let table =
        Fmea.Injection_fmea.analyse ~options
          ~element_types:conv.Blockdiag.To_netlist.block_types
          conv.Blockdiag.To_netlist.netlist Decisive.Case_study.reliability_model
      in
      let sr_rows =
        List.filter_map
          (fun (r : Fmea.Table.row) ->
            if r.Fmea.Table.safety_related then
              Some (r.Fmea.Table.component ^ "/" ^ r.Fmea.Table.failure_mode)
            else None)
          table.Fmea.Table.rows
      in
      Printf.printf "  %8.0f%%   %s\n" (100.0 *. threshold_rel)
        (String.concat ", " sr_rows))
    [ 0.05; 0.10; 0.14; 0.20; 0.30; 0.50 ];
  Printf.printf
    "the paper's Table IV corresponds to thresholds in (15%%, 100%%): \
     below ~15%% D1's short becomes safety-related too.\n"

(* ---------- Extended architecture metrics (ISO 26262 Part 5) ---------- *)

let extended_metrics () =
  section "Extended metrics — LFM and PMHF for the case study";
  let fmeda = Decisive.Case_study.fmeda (Decisive.Case_study.fmea_via_injection ()) in
  let spfm = Fmea.Metrics.spfm fmeda in
  let lb = Fmea.Metrics.latent fmeda in
  let pmhf = Fmea.Metrics.pmhf_per_hour fmeda in
  Printf.printf "SPFM %.2f%%   LFM %.2f%% (latent %.1f FIT of %.1f multi-point)   PMHF %.3e /h\n"
    spfm lb.Fmea.Metrics.lfm_pct lb.Fmea.Metrics.latent_fit
    lb.Fmea.Metrics.multipoint_fit pmhf;
  Printf.printf "ASIL-B targets (SPFM >= 90%%, LFM >= 60%%, PMHF <= 1e-7): %s\n"
    (if
       Fmea.Asil.meets_all ~target:Ssam.Requirement.ASIL_B ~spfm
         ~lfm:lb.Fmea.Metrics.lfm_pct ~pmhf
     then "all met"
     else "NOT met")

(* ---------- Parallel execution (SAME_JOBS) ---------- *)

(* [copies] independent instances of the Fig. 11 power supply in one
   netlist (only ground is shared): the MNA system and the injection
   count both scale, which is what makes per-injection parallelism pay. *)
let replicated_psu copies =
  let base = Circuit.Netlist.elements Decisive.Case_study.power_supply_netlist in
  let rename i (e : Circuit.Element.t) =
    let node n =
      if n = Circuit.Netlist.ground then n else Printf.sprintf "%s_%d" n i
    in
    Circuit.Element.make
      ~id:(Printf.sprintf "%s_%d" e.Circuit.Element.id i)
      ~kind:e.Circuit.Element.kind
      (node e.Circuit.Element.node_a)
      (node e.Circuit.Element.node_b)
  in
  Circuit.Netlist.of_elements "psu-array"
    (List.concat (List.init copies (fun i -> List.map (rename i) base)))

let parallel_speedups ~smoke () =
  section "Parallel execution — forced sequential vs the adaptive scheduler";
  Printf.printf
    "each workload runs under SAME_SCHED=seq and under the auto scheduler \
     (SAME_JOBS=4); 'identical' checks the results are equal.  When auto \
     chooses sequential it runs the very same code path as the baseline, \
     so its effective speedup is 1.0 by construction — the raw ratio is \
     reported for honesty but is pure timer noise.\n";
  let cores = Domain.recommended_domain_count () in
  Printf.printf "host cores: %d\n" cores;
  ignore (Exec.Cost.calibrate ());
  Printf.printf "measured dispatch overhead: %.1f us/batch\n"
    (Exec.Cost.dispatch_overhead_ns () /. 1e3);
  let saved = Exec.default_jobs () in
  let reps = if smoke then 2 else 3 in
  (* Best-of-N minima: the >= 1.0 acceptance is about the scheduler, not
     about scheduler-independent timer jitter. *)
  let best_of f =
    let r = ref (None : _ option) in
    let t =
      List.fold_left Float.min infinity
        (List.init reps (fun _ ->
             let v, t = timed f in
             r := Some v;
             t))
    in
    (Option.get !r, t)
  in
  let compare_sched name f equal =
    Exec.set_default_jobs 4;
    (* warm-up under auto: fills caches and seeds the cost estimates *)
    Exec.Cost.set_sched Exec.Cost.Auto;
    ignore (f ());
    Exec.Cost.set_sched Exec.Cost.Seq;
    let r_seq, t_seq = best_of f in
    Exec.Cost.set_sched Exec.Cost.Auto;
    let n0 = List.length (Exec.Cost.decisions ()) in
    let r_auto, t_auto = best_of f in
    Exec.set_default_jobs saved;
    let new_decisions =
      List.filteri (fun i _ -> i >= n0) (Exec.Cost.decisions ())
    in
    (* The workload's verdict: the largest batch the auto runs scheduled. *)
    let verdict =
      List.fold_left
        (fun acc (r : Exec.Cost.record) ->
          match acc with
          | Some (a : Exec.Cost.record) when a.Exec.Cost.d_tasks >= r.Exec.Cost.d_tasks ->
              acc
          | _ -> Some r)
        None new_decisions
    in
    let chose_parallel =
      match verdict with
      | Some { Exec.Cost.d_decision = Exec.Cost.Parallel _; _ } -> true
      | _ -> false
    in
    let identical = equal r_seq r_auto in
    let raw_speedup = t_seq /. t_auto in
    (* Auto-sequential is the sequential code path: effectively 1.0x. *)
    let effective_speedup = if chose_parallel then raw_speedup else 1.0 in
    let decision_str =
      match verdict with
      | Some { Exec.Cost.d_decision = Exec.Cost.Parallel { chunk_size }; _ } ->
          Printf.sprintf "parallel(chunk=%d)" chunk_size
      | Some { Exec.Cost.d_decision = Exec.Cost.Sequential; _ } -> "sequential"
      | None -> "no batch"
    in
    Printf.printf
      "%-26s seq %7.3f s   auto %7.3f s   %-20s effective %5.2fx (raw \
       %5.2fx)   identical %b\n"
      name t_seq t_auto decision_str effective_speedup raw_speedup identical;
    json_parallel :=
      Modelio.Json.Object
        [
          ("name", Modelio.Json.String name);
          ("seq_s", Modelio.Json.Number t_seq);
          ("par_s", Modelio.Json.Number t_auto);
          ("decision", Modelio.Json.String decision_str);
          ("speedup", Modelio.Json.Number raw_speedup);
          ("effective_speedup", Modelio.Json.Number effective_speedup);
          ("identical", Modelio.Json.Bool identical);
        ]
      :: !json_parallel
  in
  (* 1. Fault-injection FMEA at scale: one injection per (component,
     failure mode), each a full Newton DC solve. *)
  let copies =
    if Sys.getenv_opt "SAME_BENCH_FULL" = Some "1" then 24
    else if smoke then 4
    else 12
  in
  let psu_array = replicated_psu copies in
  let options =
    {
      Fmea.Injection_fmea.default_options with
      exclude = List.init copies (Printf.sprintf "DC1_%d");
    }
  in
  compare_sched
    (Printf.sprintf "injection-fmea (%d PSUs)" copies)
    (fun () ->
      Fmea.Injection_fmea.analyse ~options psu_array
        Decisive.Case_study.reliability_model)
    Fmea.Table.equal;
  if not smoke then begin
    (* 2. Exhaustive safety-mechanism search on System A. *)
    let subject = Decisive.Systems.system_a in
    let table = Decisive.Systems.automated_fmea subject in
    let types =
      (Decisive.Systems.analysable subject).Blockdiag.To_netlist.block_types
    in
    let sms = subject.Decisive.Systems.safety_mechanisms in
    compare_sched "exhaustive sm-search"
      (fun () -> Optimize.Search.exhaustive ~component_types:types table sms)
      (List.equal Optimize.Search.equal_candidate);
    (* 3. Table VI store evaluation (per-unit path FMEAs). *)
    let spec = { Store.Synthetic.set_name = "par"; target_elements = 40_000 } in
    compare_sched "store evaluate (40k)"
      (fun () -> Store.Lazy_store.evaluate spec)
      ( = )
  end

(* ---------- Batch-fleet FMEA: one warm engine vs N cold runs ---------- *)

(* The design-exploration workload: N PSU variants (cycling 3 electrical
   designs) analysed by N independent engines vs one warm engine.  The
   fleet shares golden factorisations by structural netlist fingerprint
   and runs all injections as one flat scheduled batch, so it must do
   strictly fewer golden solves and produce bit-identical tables. *)
let batch_fmea ~smoke () =
  section "Batch-fleet FMEA — one warm engine vs N cold runs";
  let count = if smoke then 6 else 12 in
  let variants = Decisive.Case_study.design_variants ~count () in
  let reliability = Decisive.Case_study.reliability_model in
  let options = Decisive.Case_study.injection_options in
  (* warm-up: first-touch of the fleet code paths stays out of the timings *)
  ignore
    (Engine.Batch.run_fmea (Engine.Pipeline.create ()) ~options variants
       reliability);
  (* Best-of-N with a fresh scenario per repetition: every rep pays the
     full engine setup it claims to (a re-used fleet engine would serve
     the whole batch from its result cache and time a no-op), and the
     minimum strips scheduler/GC noise — the CI gate asserts on these
     numbers. *)
  let reps = 5 in
  let best f =
    let rec go best_t best_v n =
      if n = 0 then (Option.get best_v, best_t)
      else
        let v, t = timed f in
        if t < best_t then go t (Some v) (n - 1) else go best_t best_v (n - 1)
    in
    go infinity None reps
  in
  let cold, t_cold =
    best (fun () ->
        List.map
          (fun (label, diagram) ->
            let e = Engine.Pipeline.create () in
            let table =
              Engine.Pipeline.injection_fmea e ~options diagram reliability
            in
            (label, table, (Engine.Pipeline.snapshot e).Engine.Stats.golden_solves))
          variants)
  in
  let cold_golden = List.fold_left (fun acc (_, _, g) -> acc + g) 0 cold in
  let (summary, fleet_golden), t_fleet =
    best (fun () ->
        let engine = Engine.Pipeline.create () in
        let summary =
          Engine.Batch.run_fmea engine ~options variants reliability
        in
        (summary, (Engine.Pipeline.snapshot engine).Engine.Stats.golden_solves))
  in
  let identical =
    List.for_all2
      (fun (_, table, _) (e : Engine.Batch.fmea_entry) ->
        Fmea.Table.equal table e.Engine.Batch.b_table)
      cold summary.Engine.Batch.f_entries
  in
  Printf.printf "fleet: %d variants, %d distinct designs, %d rows total\n"
    count summary.Engine.Batch.f_distinct_designs summary.Engine.Batch.f_rows;
  Printf.printf "cold (%d engines): %7.3f s   %2d golden solves\n" count t_cold
    cold_golden;
  Printf.printf "warm fleet:        %7.3f s   %2d golden solves\n" t_fleet
    fleet_golden;
  Printf.printf "speedup %.2fx, golden solves %d -> %d, identical %b\n"
    (t_cold /. t_fleet) cold_golden fleet_golden identical;
  record_timing "batch/cold" t_cold;
  record_timing "batch/fleet" t_fleet;
  json_batch :=
    Modelio.Json.Object
      [
        ("name", Modelio.Json.String "psu-design-fleet");
        ("variants", Modelio.Json.Number (float_of_int count));
        ( "distinct_designs",
          Modelio.Json.Number
            (float_of_int summary.Engine.Batch.f_distinct_designs) );
        ("cold_s", Modelio.Json.Number t_cold);
        ("fleet_s", Modelio.Json.Number t_fleet);
        ("speedup", Modelio.Json.Number (t_cold /. t_fleet));
        ("cold_golden", Modelio.Json.Number (float_of_int cold_golden));
        ("fleet_golden", Modelio.Json.Number (float_of_int fleet_golden));
        ("identical", Modelio.Json.Bool identical);
      ]
    :: !json_batch

(* ---------- Scaling: golden-factor re-solve vs dense refactorise ---------- *)

(* The fast-kernel acceptance experiment: on a synthetic ladder of
   [--scale N] sections (default 512, ~578 MNA unknowns), every faulted
   solve goes through {!Circuit.Dc.inject} — a low-rank SMW re-solve
   against the golden sparse factors — and is compared, per injection,
   with a from-scratch dense refactorise by the test oracle
   [Oracle.Dense_dc].  The baseline is sampled (a spread of ~24
   injections) because a full dense FMEA at this size is O(n^3) per row;
   the fast path also runs the complete FMEA end-to-end.  Gated at
   >= 500 unknowns, >= 5x per injection and <= 1e-9 reading
   deviation. *)
let scaling () =
  section "Scaling — sparse golden factors + low-rank re-solve (--scale)";
  let sections =
    let rec find i =
      if i + 1 >= Array.length Sys.argv then None
      else if Sys.argv.(i) = "--scale" then int_of_string_opt Sys.argv.(i + 1)
      else find (i + 1)
    in
    Option.value (find 1) ~default:512
  in
  let nl = Circuit.Generator.ladder ~sections in
  let p = Circuit.Dc.prepare nl in
  let n = Circuit.Dc.size p in
  Printf.printf "ladder: %d sections, %d unknowns\n" sections n;
  let g, t_factor =
    timed (fun () ->
        match Circuit.Dc.factorise p with
        | Ok g -> g
        | Error e ->
            Format.kasprintf failwith "scaling: golden solve failed: %a"
              Circuit.Dc.pp_error e)
  in
  Printf.printf "golden factorisation: %.1f ms\n" (1000.0 *. t_factor);
  (* A spread of injectable (element, fault) cases across the ladder. *)
  let all_cases =
    List.concat_map
      (fun (e : Circuit.Element.t) ->
        let id = e.Circuit.Element.id in
        match e.Circuit.Element.kind with
        | Circuit.Element.Resistor _ ->
            [
              (id, Circuit.Fault.Open_circuit);
              (id, Circuit.Fault.Short_circuit);
              (id, Circuit.Fault.Parameter_shift 2.0);
            ]
        | Circuit.Element.Load _ ->
            [ (id, Circuit.Fault.Open_circuit); (id, Circuit.Fault.Short_circuit) ]
        | Circuit.Element.Current_sensor -> [ (id, Circuit.Fault.Open_circuit) ]
        | Circuit.Element.Vsource _ -> [ (id, Circuit.Fault.Stuck_value 0.0) ]
        | _ -> [])
      (Circuit.Netlist.elements nl)
  in
  let sample_target = 24 in
  let stride = max 1 (List.length all_cases / sample_target) in
  let cases =
    List.filteri (fun i _ -> i mod stride = 0) all_cases
    |> List.filteri (fun i _ -> i < sample_target)
  in
  let max_dev = ref 0.0 in
  let t_fast = ref 0.0 and t_dense = ref 0.0 in
  List.iter
    (fun (id, fault) ->
      let fast, tf =
        timed (fun () -> Circuit.Dc.inject g ~element_id:id fault)
      in
      let dense, td =
        timed (fun () ->
            Oracle.Dense_dc.analyse
              (Circuit.Fault.inject nl ~element_id:id fault))
      in
      t_fast := !t_fast +. tf;
      t_dense := !t_dense +. td;
      match (fast, dense) with
      | Ok sf, Ok sd ->
          List.iter2
            (fun (_, a) (_, b) ->
              max_dev := Float.max !max_dev (Float.abs (a -. b)))
            (Circuit.Dc.all_sensor_readings sf)
            (Oracle.Dense_dc.all_sensor_readings sd)
      | _ ->
          Printf.ksprintf failwith "scaling: %s/%s disagreed on solvability" id
            (Circuit.Fault.to_string fault))
    cases;
  let n_cases = List.length cases in
  let per_fast = !t_fast /. float_of_int n_cases in
  let per_dense = !t_dense /. float_of_int n_cases in
  let speedup = per_dense /. per_fast in
  Printf.printf
    "%d sampled injections: fast %.3f ms/inj, dense-oracle refactorise \
     %.1f ms/inj — speedup %.1fx (acceptance >= 5x)\n"
    n_cases (1000.0 *. per_fast) (1000.0 *. per_dense) speedup;
  Printf.printf
    "max sensor-reading deviation vs the dense oracle: %.3g (acceptance <= \
     1e-9)\n"
    !max_dev;
  (* The low-rank re-solve must beat a dense refactorisation by 5x at
     >= 500 unknowns and agree with it to 1e-9 on every reading. *)
  gate (n >= 500) "scaling: netlist too small: %d unknowns (need >= 500)" n;
  gate (speedup >= 5.0) "scaling: re-solve speedup %.1fx below 5x" speedup;
  gate (!max_dev <= 1e-9) "scaling: reading deviation %g above 1e-9" !max_dev;
  (* The complete FMEA through the reuse solver, as the pipeline runs it. *)
  let catalogue = Reliability.Reliability_model.synthetic_catalogue in
  let options =
    { Fmea.Injection_fmea.default_options with exclude = [ "VIN" ] }
  in
  let table, t_fmea =
    timed (fun () -> Fmea.Injection_fmea.analyse ~options nl catalogue)
  in
  Printf.printf "full injection FMEA (reuse solver): %d rows in %.2f s\n"
    (List.length table.Fmea.Table.rows)
    t_fmea;
  record_timing "scaling/fmea-reuse" t_fmea;
  json_scaling :=
    Modelio.Json.Object
      [
        ("topology", Modelio.Json.String "ladder");
        ("sections", Modelio.Json.Number (float_of_int sections));
        ("unknowns", Modelio.Json.Number (float_of_int n));
        ("golden_factor_s", Modelio.Json.Number t_factor);
        ("injections_sampled", Modelio.Json.Number (float_of_int n_cases));
        ("fast_per_injection_s", Modelio.Json.Number per_fast);
        ("dense_per_injection_s", Modelio.Json.Number per_dense);
        ("speedup", Modelio.Json.Number speedup);
        ("max_reading_deviation", Modelio.Json.Number !max_dev);
        ("fmea_rows", Modelio.Json.Number
           (float_of_int (List.length table.Fmea.Table.rows)));
        ("fmea_reuse_s", Modelio.Json.Number t_fmea);
      ]
    :: !json_scaling

(* ---------- Path FMEA: dominators vs enumeration (--smoke aware) ---------- *)

(* Algorithm 1 at scale.  Near the 20 000-simple-path cap the dominator
   route must beat the enumeration oracle by >= 20x while producing a
   [Table.equal]-identical table; beyond the cap only the dominator
   route has an answer at all, and it must be the closed-form one the
   generator architectures guarantee. *)
let path_fmea_scaling ~smoke () =
  section "Path FMEA — dominator classification vs path enumeration";
  let time_per_run reps f =
    ignore (f ());
    (* warm-up *)
    let _, t = timed (fun () -> for _ = 1 to reps do ignore (f ()) done) in
    t /. float_of_int reps
  in
  let near_cap name sys paths =
    let reference = Oracle.Enumerated_path_fmea.analyse sys in
    let t_enum =
      time_per_run (if smoke then 3 else 5) (fun () ->
          Oracle.Enumerated_path_fmea.analyse sys)
    in
    let t_dom =
      time_per_run (if smoke then 50 else 200) (fun () ->
          Fmea.Path_fmea.analyse sys)
    in
    let identical = Fmea.Table.equal (Fmea.Path_fmea.analyse sys) reference in
    let speedup = t_enum /. t_dom in
    Printf.printf
      "%-14s %7d paths   enumeration %8.3f ms   dominators %8.3f ms   \
       speedup %7.1fx   identical %b\n"
      name paths (1000.0 *. t_enum) (1000.0 *. t_dom) speedup identical;
    gate identical "path_fmea/%s: dominator table != enumeration table" name;
    gate (speedup >= 20.0) "path_fmea/%s: speedup %.1fx below 20x" name speedup;
    json_path_fmea :=
      Modelio.Json.Object
        [
          ("name", Modelio.Json.String name);
          ("paths", Modelio.Json.Number (float_of_int paths));
          ("enumeration_s", Modelio.Json.Number t_enum);
          ("dominators_s", Modelio.Json.Number t_dom);
          ("speedup", Modelio.Json.Number speedup);
          ("identical", Modelio.Json.Bool identical);
        ]
      :: !json_path_fmea
  in
  let beyond_cap name sys paths expected =
    let t_dom =
      time_per_run (if smoke then 20 else 50) (fun () ->
          Fmea.Path_fmea.analyse sys)
    in
    let t = Fmea.Path_fmea.analyse sys in
    let exact = Fmea.Table.safety_related_components t = expected in
    Printf.printf
      "%-14s %7d paths   enumeration N/A (over the %d cap)   dominators \
       %8.3f ms   exact %b\n"
      name paths Fmea.Path_fmea.max_paths (1000.0 *. t_dom) exact;
    gate exact "path_fmea/%s: beyond-cap single points not exact" name;
    json_path_fmea :=
      Modelio.Json.Object
        [
          ("name", Modelio.Json.String name);
          ("paths", Modelio.Json.Number (float_of_int paths));
          ("beyond_cap", Modelio.Json.Bool true);
          ("dominators_s", Modelio.Json.Number t_dom);
          ("exact", Modelio.Json.Bool exact);
        ]
      :: !json_path_fmea
  in
  let d_stages = if smoke then 12 else 14 in
  near_cap
    (Printf.sprintf "diamond-%d" d_stages)
    (Circuit.Generator.diamond_arch ~stages:d_stages)
    (Circuit.Generator.diamond_path_count ~stages:d_stages);
  let rows, cols = if smoke then (8, 8) else (9, 9) in
  near_cap
    (Printf.sprintf "grid-%dx%d" rows cols)
    (Circuit.Generator.grid_arch ~rows ~cols)
    (Circuit.Generator.grid_path_count ~rows ~cols);
  let b_stages = 18 in
  beyond_cap
    (Printf.sprintf "diamond-%d" b_stages)
    (Circuit.Generator.diamond_arch ~stages:b_stages)
    (Circuit.Generator.diamond_path_count ~stages:b_stages)
    (List.init (b_stages + 1) (Printf.sprintf "J%d"));
  beyond_cap "grid-10x10"
    (Circuit.Generator.grid_arch ~rows:10 ~cols:10)
    (Circuit.Generator.grid_path_count ~rows:10 ~cols:10)
    [ "B0_0"; "B9_9" ]

(* ---------- Streaming search: millions of combinations, flat memory ---------- *)

let streaming_search ~smoke () =
  section "Streaming search — counter-based exhaustive enumeration";
  (* [n] slots with three mechanisms each plus one two-option slot:
     2 * 4^n combinations.  The list-based search capped out at 200 000
     combinations (the materialised candidate list); the streaming fold
     keeps only the evaluation window and the online Pareto front. *)
  let n = if smoke then 6 else 10 in
  let name i = Printf.sprintf "C%d" i in
  let rows =
    List.init (n + 1) (fun i ->
        Fmea.Table.make_row ~component:(name i) ~component_fit:100.0
          ~failure_mode:"f" ~distribution_pct:100.0 ~safety_related:true ())
  in
  let mechanisms =
    List.init (n + 1) (fun i ->
        if i = n then [ { Reliability.Sm_model.sm_name = "only";
                          component_type = name i; failure_mode = "f";
                          coverage_pct = 95.0; cost = 3.0 } ]
        else
          [
            { Reliability.Sm_model.sm_name = "a"; component_type = name i;
              failure_mode = "f"; coverage_pct = 60.0; cost = 1.0 };
            { Reliability.Sm_model.sm_name = "b"; component_type = name i;
              failure_mode = "f"; coverage_pct = 90.0; cost = 2.0 };
            { Reliability.Sm_model.sm_name = "c"; component_type = name i;
              failure_mode = "f"; coverage_pct = 99.0; cost = 4.0 };
          ])
    |> List.concat
  in
  let table = { Fmea.Table.system_name = "streaming"; rows } in
  let catalogue = Reliability.Sm_model.of_mechanisms mechanisms in
  let combinations = 2 * (1 lsl (2 * n)) in
  (* Before timing: the counter-incremental scan must score its first
     window exactly as the reference [Search.evaluate] does, candidate
     for candidate, so a scoring drift fails the bench itself. *)
  let first_window = 8_192 in
  let exception Window_full of Optimize.Search.candidate list in
  let first =
    match
      Optimize.Search.exhaustive_fold ~max_combinations:3_000_000 table
        catalogue ~init:(0, [])
        ~f:(fun (k, acc) c ->
          if k + 1 = first_window then raise (Window_full (c :: acc))
          else (k + 1, c :: acc))
    with
    | _, acc | (exception Window_full acc) -> List.rev acc
  in
  assert (List.length first = min first_window combinations);
  List.iter
    (fun (c : Optimize.Search.candidate) ->
      assert (
        Optimize.Search.equal_candidate c
          (Optimize.Search.evaluate table c.Optimize.Search.deployments)))
    first;
  let (count, cheapest), t =
    timed (fun () ->
        Optimize.Search.exhaustive_fold ~max_combinations:3_000_000 table
          catalogue ~init:(0, None)
          ~f:(fun (count, best) c ->
            let best =
              if c.Optimize.Search.spfm_pct < 90.0 then best
              else
                match best with
                | Some (b : Optimize.Search.candidate)
                  when b.Optimize.Search.cost <= c.Optimize.Search.cost ->
                    best
                | Some _ | None -> Some c
            in
            (count + 1, best)))
  in
  let ns_per_candidate = 1e9 *. t /. float_of_int count in
  Printf.printf
    "%d combinations streamed in %.2f s (%.0f candidates/s, %.0f ns per \
     candidate); cheapest ASIL-B deployment costs %s\n"
    count t
    (float_of_int count /. t)
    ns_per_candidate
    (match cheapest with
    | Some c -> Printf.sprintf "%.1f h" c.Optimize.Search.cost
    | None -> "—  (none meets 90%)");
  assert (count = combinations);
  json_path_fmea :=
    Modelio.Json.Object
      [
        ("name", Modelio.Json.String "streaming-search");
        ("combinations", Modelio.Json.Number (float_of_int count));
        ("seconds", Modelio.Json.Number t);
        ( "candidates_per_s",
          Modelio.Json.Number (float_of_int count /. t) );
        ("ns_per_candidate", Modelio.Json.Number ns_per_candidate);
      ]
    :: !json_path_fmea;
  (* Every path_fmea subject class must be present: rows near the
     enumeration cap, rows beyond it, and this streaming search. *)
  let has key =
    List.exists (fun e -> Modelio.Json.member key e <> None) !json_path_fmea
  in
  gate
    (has "speedup" && has "beyond_cap" && has "combinations")
    "path_fmea: section is missing a subject class"

(* ---------- FTA: BDD minimal cut sets vs MOCUS expansion ---------- *)

(* The cut-set kernel acceptance: at every published size the hash-consed
   BDD/ZBDD route must produce the list the MOCUS oracle does, at least
   as fast (the oracle's minimisation is quadratic in the set count),
   and past the oracle's 100k intermediate-set cap — where MOCUS raises
   — the default engine must still solve the tree exactly: cut-set count
   and the closed-form 2-out-of-n probability both checked. *)
let fta ~smoke () =
  section "FTA — BDD minimal cut sets vs MOCUS expansion";
  let basic prefix i =
    Fta.Fault_tree.basic ~rate_fit:100.0 (Printf.sprintf "%s%d" prefix i)
  in
  (* AND of k two-way ORs: 2^k minimal cut sets of order k. *)
  let series_parallel k =
    Fta.Fault_tree.and_ "top"
      (List.init k (fun i ->
           Fta.Fault_tree.or_
             (Printf.sprintf "s%d" i)
             [ basic "a" i; basic "b" i ]))
  in
  (* 2-out-of-n vote: n(n-1)/2 minimal cut sets of order 2. *)
  let vote n =
    Fta.Fault_tree.koon "vote" ~k:2 (List.init n (basic "e"))
  in
  let time_per_run reps f =
    ignore (f ());
    (* warm-up *)
    let best = ref infinity in
    for _ = 1 to reps do
      let _, t = timed f in
      best := Float.min !best t
    done;
    !best
  in
  let published name tree sets =
    let mocus () = Oracle.Mocus.minimal tree in
    let bdd () = Fta.Cut_sets.minimal ~engine:`Bdd tree in
    let t_mocus = time_per_run (if smoke then 2 else 4) mocus in
    let t_bdd = time_per_run (if smoke then 5 else 20) bdd in
    let identical = mocus () = bdd () && List.length (bdd ()) = sets in
    let speedup = t_mocus /. t_bdd in
    Printf.printf
      "%-18s %6d cut sets   mocus %8.3f ms   bdd %8.3f ms   speedup \
       %6.1fx   identical %b\n"
      name sets (1000.0 *. t_mocus) (1000.0 *. t_bdd) speedup identical;
    json_fta :=
      Modelio.Json.Object
        [
          ("name", Modelio.Json.String name);
          ("cut_sets", Modelio.Json.Number (float_of_int sets));
          ("mocus_s", Modelio.Json.Number t_mocus);
          ("bdd_s", Modelio.Json.Number t_bdd);
          ("speedup", Modelio.Json.Number speedup);
          ("identical", Modelio.Json.Bool identical);
        ]
      :: !json_fta
  in
  published "series-parallel-10" (series_parallel 10) 1024;
  if not smoke then published "series-parallel-12" (series_parallel 12) 4096;
  published
    (if smoke then "vote-2-of-80" else "vote-2-of-120")
    (vote (if smoke then 80 else 120))
    (if smoke then 80 * 79 / 2 else 120 * 119 / 2);
  (* Beyond the MOCUS cap: 2-of-500 has 124 750 minimal cut sets. *)
  let n = 500 in
  let tree = vote n in
  let expected = n * (n - 1) / 2 in
  let mocus_raises =
    match Oracle.Mocus.minimal tree with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  let sets, t_bdd = timed (fun () -> Fta.Cut_sets.minimal ~engine:`Auto tree) in
  let probs = Fta.Quant.event_probabilities tree in
  let p = match probs with (_, p) :: _ -> p | [] -> 0.0 in
  let q = 1.0 -. p in
  let nf = float_of_int n in
  let closed =
    1.0 -. (q ** nf) -. (nf *. p *. (q ** (nf -. 1.0)))
  in
  let bdd_p = Fta.Quant.top_probability_exact tree probs in
  let exact =
    List.length sets = expected
    && List.for_all (fun s -> List.length s = 2) sets
    && Float.abs (bdd_p -. closed) <= 1e-6 *. closed
  in
  Printf.printf
    "vote-2-of-%d       %6d cut sets   mocus raises (over the 100k cap): \
     %b   bdd %8.3f ms   P(top) %.6e vs closed form %.6e   exact %b\n"
    n expected mocus_raises (1000.0 *. t_bdd) bdd_p closed exact;
  json_fta :=
    Modelio.Json.Object
      [
        ("name", Modelio.Json.String (Printf.sprintf "vote-2-of-%d" n));
        ("beyond_cap", Modelio.Json.Bool true);
        ("cut_sets", Modelio.Json.Number (float_of_int (List.length sets)));
        ("expected", Modelio.Json.Number (float_of_int expected));
        ("mocus_raises", Modelio.Json.Bool mocus_raises);
        ("bdd_s", Modelio.Json.Number t_bdd);
        ("bdd_p", Modelio.Json.Number bdd_p);
        ("closed_form_p", Modelio.Json.Number closed);
        ("exact", Modelio.Json.Bool exact);
      ]
    :: !json_fta

(* ---------- Assessment: bit-parallel Monte-Carlo vs BDD-exact ---------- *)

let assess ~smoke () =
  section "Assessment — bit-parallel Monte-Carlo vs BDD-exact";
  let published name ?(sampling = Assess.Mc.Direct) ~trials ~mission_hours tree
      =
    let config =
      {
        Assess.Mc.default with
        Assess.Mc.mission_hours;
        sampling;
        trials = Some trials;
        exact = Assess.Mc.Force;
      }
    in
    (* warm-up pays code first-touch; the timed run is the reported one *)
    ignore (Assess.Mc.run { config with Assess.Mc.trials = Some 100_000 } tree);
    let r = Assess.Mc.run config tree in
    let exact = Option.get r.Assess.Mc.exact in
    let delta = Option.get r.Assess.Mc.exact_delta in
    (* The estimate is deterministic for the fixed seed, so this is a
       reproducible acceptance criterion, not a statistical coin flip. *)
    let within_ci = delta <= r.Assess.Mc.halfwidth in
    Printf.printf
      "%-18s %9d trials   %7.1f Mtrials/s   P(top) %.6e +/- %.1e   exact \
       %.6e   delta %.1e   within CI %b\n"
      name r.Assess.Mc.trials
      (r.Assess.Mc.trials_per_sec /. 1e6)
      r.Assess.Mc.top_probability r.Assess.Mc.halfwidth exact delta within_ci;
    (* The bit-parallel kernel must hold the published throughput floor,
       and the estimate must land inside its own 99% CI of exact. *)
    gate
      (r.Assess.Mc.trials_per_sec >= 1e6)
      "assess/%s: %.0f trials/s below the 1e6 floor" name
      r.Assess.Mc.trials_per_sec;
    gate within_ci "assess/%s: estimate %.6e outside the 99%% CI of exact %.6e"
      name r.Assess.Mc.top_probability exact;
    record_timing (Printf.sprintf "assess/%s" name) r.Assess.Mc.elapsed_s;
    json_assess :=
      Modelio.Json.Object
        [
          ("name", Modelio.Json.String name);
          ( "sampling",
            Modelio.Json.String (Assess.Mc.sampling_to_string sampling) );
          ("trials", Modelio.Json.Number (float_of_int r.Assess.Mc.trials));
          ("trials_per_sec", Modelio.Json.Number r.Assess.Mc.trials_per_sec);
          ("estimate", Modelio.Json.Number r.Assess.Mc.top_probability);
          ("ci_halfwidth", Modelio.Json.Number r.Assess.Mc.halfwidth);
          ("exact", Modelio.Json.Number exact);
          ("exact_delta", Modelio.Json.Number delta);
          ("within_ci", Modelio.Json.Bool within_ci);
          ("instrs", Modelio.Json.Number (float_of_int r.Assess.Mc.instrs));
        ]
      :: !json_assess
  in
  (* The paper's power-supply tree: the CI smoke gate asserts >= 1M
     trials/s and the estimate inside its own 99% interval here. *)
  let psu = Fta.From_ssam.generate Decisive.Case_study.power_supply_root in
  published "power-supply" ~trials:(if smoke then 4_000_000 else 16_000_000)
    ~mission_hours:10_000.0 psu;
  (* A voted redundancy at well-conditioned probabilities: the k-of-n
     bit-sliced comparator at its widest. *)
  let vote n =
    Fta.Fault_tree.koon "vote" ~k:2
      (List.init n (fun i ->
           Fta.Fault_tree.basic ~rate_fit:100.0 (Printf.sprintf "e%d" i)))
  in
  published "vote-2-of-24" ~trials:(if smoke then 1_000_000 else 8_000_000)
    ~mission_hours:4.0e5 (vote 24);
  (* Rare top event (~1e-9): importance sampling converges at a budget
     where direct sampling essentially never sees a hit. *)
  let rare =
    Fta.Fault_tree.and_ "top"
      [
        Fta.Fault_tree.basic ~rate_fit:100.0 "a";
        Fta.Fault_tree.basic ~rate_fit:100.0 "b";
        Fta.Fault_tree.basic ~rate_fit:100.0 "c";
      ]
  in
  published "rare-and-3" ~sampling:Assess.Mc.Importance
    ~trials:(if smoke then 1_000_000 else 4_000_000)
    ~mission_hours:10_000.0 rare

(* ---------- Diagnosis: dataflow fixpoints + forward/backward oracle ---------- *)

let diagnosis ~smoke () =
  section "Diagnosis — dataflow fixpoints and the forward/backward oracle";
  let open Dataflow in
  let fixpoints name arch =
    let m = Model.of_architecture arch in
    let nodes = Graph.Digraph.node_count m.Model.graph in
    ignore (Passes.forward_taint m);
    (* warm-up *)
    let reps = if smoke then 20 else 200 in
    let _, t =
      timed (fun () ->
          for _ = 1 to reps do
            ignore (Passes.forward_taint m);
            ignore (Passes.backward_reach m)
          done)
    in
    let forward = Passes.forward_taint m in
    let backward = Passes.backward_reach m in
    let agree, pairs = Passes.agreement m ~forward ~backward in
    assert agree;
    let iterations =
      forward.Passes.stats.Fixpoint.iterations
      + backward.Passes.stats.Fixpoint.iterations
    in
    let ns_per_node = 1e9 *. t /. float_of_int (reps * 2 * nodes) in
    Printf.printf
      "%-14s %5d nodes   %5d iterations   %8.0f ns/node/pass   oracle \
       agrees over %d pairs\n"
      name nodes iterations ns_per_node pairs;
    json_diagnosis :=
      Modelio.Json.Object
        [
          ("name", Modelio.Json.String name);
          ("nodes", Modelio.Json.Number (float_of_int nodes));
          ("iterations", Modelio.Json.Number (float_of_int iterations));
          ("ns_per_node", Modelio.Json.Number ns_per_node);
          ("agreement_pairs", Modelio.Json.Number (float_of_int pairs));
          ("agree", Modelio.Json.Bool agree);
        ]
      :: !json_diagnosis
  in
  let d_stages = if smoke then 8 else 12 in
  let g_side = if smoke then 8 else 16 in
  fixpoints
    (Printf.sprintf "diamond-%d" d_stages)
    (Circuit.Generator.diamond_arch ~stages:d_stages);
  fixpoints
    (Printf.sprintf "grid-%dx%d" g_side g_side)
    (Circuit.Generator.grid_arch ~rows:g_side ~cols:g_side);
  (* The case-study circuit: backward candidates confirmed or refuted by
     numeric fault injection — the paper's Table IV from the other
     direction. *)
  let diagram = Decisive.Case_study.power_supply_diagram in
  let reliability = Decisive.Case_study.reliability_model in
  let m = Model.of_diagram ~reliability diagram in
  let verify =
    match
      Diagnose.circuit_verifier ~options:Decisive.Case_study.injection_options
        ~reliability ~output:"CS1" diagram
    with
    | Ok v -> v
    | Error why -> failwith why
  in
  let report, t =
    timed (fun () ->
        match Diagnose.diagnose ~verify m ~output:"CS1" with
        | Ok r -> r
        | Error why -> failwith why)
  in
  let confirmed =
    List.length
      (List.filter
         (fun (e : Diagnose.explanation) ->
           match e.Diagnose.verdict with Diagnose.Confirmed _ -> true | _ -> false)
         report.Diagnose.candidates)
  in
  Printf.printf
    "power-supply   %d candidates -> %d confirmed by injection   %d minimal \
     single points   %.1f ms\n"
    (List.length report.Diagnose.candidates)
    confirmed
    (List.length report.Diagnose.singles)
    (1000.0 *. t);
  assert report.Diagnose.agree;
  json_diagnosis :=
    Modelio.Json.Object
      [
        ("name", Modelio.Json.String "power-supply-CS1");
        ( "candidates",
          Modelio.Json.Number
            (float_of_int (List.length report.Diagnose.candidates)) );
        ("confirmed", Modelio.Json.Number (float_of_int confirmed));
        ( "singles",
          Modelio.Json.Number (float_of_int (List.length report.Diagnose.singles))
        );
        ("seconds", Modelio.Json.Number t);
        ("agree", Modelio.Json.Bool report.Diagnose.agree);
      ]
    :: !json_diagnosis

(* ---------- Iteration loop: incremental re-analysis ---------- *)

(* The DECISIVE loop's common case: one design iteration touches one
   component.  Here System B's microcontroller supplier revises its FIT;
   the incremental engine re-classifies only the rows the edit can reach
   (the edited entry's components plus the diff closure) and reuses the
   cached golden run, so the warm re-analysis performs strictly fewer
   solves than the cold one — bit-identically. *)
let iteration_loop () =
  section "Iteration loop — warm vs cold re-analysis (System B, one edit)";
  let subject = Decisive.Systems.system_b in
  let diagram = subject.Decisive.Systems.diagram in
  let reliability = subject.Decisive.Systems.reliability in
  let options =
    {
      Fmea.Injection_fmea.default_options with
      exclude = [ "DC1"; "BAT1" ];
      monitored_sensors = Some [ "CS1"; "CS2"; "VS1" ];
    }
  in
  (* The edit: the MCU's FIT worsens by 25. *)
  let edited =
    match
      Reliability.Reliability_model.find reliability "microcontroller"
    with
    | Some e ->
        Reliability.Reliability_model.add reliability
          {
            e with
            Reliability.Reliability_model.fit =
              e.Reliability.Reliability_model.fit +. 25.0;
          }
    | None -> reliability
  in
  (* One untimed pass through both paths pays the first-touch costs of
     the diff/reuse machinery, which otherwise land on whichever timed
     run happens first. *)
  let fill engine =
    Engine.Pipeline.injection_fmea engine ~options diagram reliability
  in
  let warm_once engine table_v1 =
    Engine.Pipeline.injection_fmea engine
      ~previous:
        {
          Engine.Pipeline.prev_diagram = diagram;
          prev_reliability = reliability;
          prev_table = table_v1;
        }
      ~options diagram edited
  in
  (let e = Engine.Pipeline.create () in
   ignore (warm_once e (fill e));
   ignore (Engine.Pipeline.injection_fmea (Engine.Pipeline.create ()) ~options diagram edited));
  (* Best-of-N, fresh scenario per repetition: the warm engine is
     recreated and refilled (untimed) every rep — re-running warm on an
     already-warm engine would hit the result cache and time a no-op —
     and the cold engine is recreated every rep.  The CI gate asserts
     warm <= cold on these minima. *)
  let reps = 5 in
  (* [f] returns (value, elapsed); keep the fastest rep. *)
  let best f =
    let rec go best_t best_v n =
      if n = 0 then (Option.get best_v, best_t)
      else
        let v, t = f () in
        if t < best_t then go t (Some v) (n - 1) else go best_t best_v (n - 1)
    in
    go infinity None reps
  in
  let t_v1 = ref 0.0 in
  let (table_cold, cold), t_cold =
    best (fun () ->
        timed (fun () ->
            let cold_engine = Engine.Pipeline.create () in
            let table =
              Engine.Pipeline.injection_fmea cold_engine ~options diagram edited
            in
            (table, Engine.Pipeline.snapshot cold_engine)))
  in
  let (table_warm, warm), t_warm =
    best (fun () ->
        let warm_engine = Engine.Pipeline.create () in
        let table_v1, t_fill = timed (fun () -> fill warm_engine) in
        t_v1 := t_fill;
        Engine.Stats.reset (Engine.Pipeline.stats warm_engine);
        let (table, snapshot), elapsed =
          timed (fun () ->
              let table = warm_once warm_engine table_v1 in
              (table, Engine.Pipeline.snapshot warm_engine))
        in
        ((table, snapshot), elapsed))
  in
  let t_v1 = !t_v1 in
  let identical = Fmea.Table.equal table_cold table_warm in
  Printf.printf "iteration 1 (fills caches):  %7.3f s\n" t_v1;
  Printf.printf "cold re-analysis:            %7.3f s   %d solves\n" t_cold
    (Engine.Stats.solves_performed cold);
  Printf.printf
    "warm re-analysis:            %7.3f s   %d solves   %d rows reused\n"
    t_warm
    (Engine.Stats.solves_performed warm)
    warm.Engine.Stats.rows_reused;
  Printf.printf "warm result identical to cold: %b; solves saved: %d\n"
    identical
    (Engine.Stats.solves_performed cold - Engine.Stats.solves_performed warm);
  record_timing "incremental/cold" t_cold;
  record_timing "incremental/warm" t_warm;
  json_incremental :=
    Modelio.Json.Object
      [
        ("name", Modelio.Json.String "system-b/mcu-fit-edit");
        ("cold_s", Modelio.Json.Number t_cold);
        ("warm_s", Modelio.Json.Number t_warm);
        ( "cold_solves",
          Modelio.Json.Number (float_of_int (Engine.Stats.solves_performed cold))
        );
        ( "warm_solves",
          Modelio.Json.Number (float_of_int (Engine.Stats.solves_performed warm))
        );
        ( "rows_reused",
          Modelio.Json.Number (float_of_int warm.Engine.Stats.rows_reused) );
        ("identical", Modelio.Json.Bool identical);
      ]
    :: !json_incremental

(* ---------- same serve: warm daemon vs cold CLI ---------- *)

(* The daemon's value proposition, measured end to end: a cold `same
   fmea` CLI run (process start + model load + full analysis) against
   warm one-edit requests to an in-process server over its real Unix
   socket — each edit a *distinct* reliability change, so every request
   is an incremental re-analysis, not a response-cache hit.  A second
   experiment fires N identical concurrent requests at a fresh
   fingerprint and reads back how many computations actually ran. *)
let serve_bench ~smoke () =
  section "same serve — warm sessions vs cold CLI (System B, one edit)";
  let subject = Decisive.Systems.system_b in
  let diagram = subject.Decisive.Systems.diagram in
  let reliability = subject.Decisive.Systems.reliability in
  let exclude = "DC1,BAT1" and monitored = "CS1,CS2,VS1" in
  (* Model texts: the diagram via its text format, the reliability model
     via its spreadsheet round-trip. *)
  let diagram_path = Filename.temp_file "same-serve-sysb" ".bd" in
  Blockdiag.Text_format.write_file diagram_path diagram;
  let diagram_text = In_channel.with_open_bin diagram_path In_channel.input_all in
  let reliability_csv m =
    match (Reliability.Reliability_model.to_spreadsheet m).Modelio.Spreadsheet.sheets with
    | { Modelio.Spreadsheet.table; _ } :: _ ->
        Modelio.Csv.to_string
          (table.Modelio.Csv.header :: table.Modelio.Csv.rows)
    | [] -> ""
  in
  let reliability_path = Filename.temp_file "same-serve-rel" ".csv" in
  Out_channel.with_open_bin reliability_path (fun oc ->
      Out_channel.output_string oc (reliability_csv reliability));
  let edited k =
    match
      Reliability.Reliability_model.find reliability "microcontroller"
    with
    | Some e ->
        Reliability.Reliability_model.add reliability
          {
            e with
            Reliability.Reliability_model.fit =
              e.Reliability.Reliability_model.fit +. (25.0 *. float_of_int k);
          }
    | None -> reliability
  in
  (* Cold baseline: the real CLI, fresh process per run. *)
  let same_exe =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/same.exe"
  in
  let cold_cli () =
    let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
    let _, t =
      timed (fun () ->
          let pid =
            Unix.create_process same_exe
              [|
                same_exe; "fmea"; diagram_path; "-r"; reliability_path;
                "-e"; "DC1"; "-e"; "BAT1";
                "-m"; "CS1"; "-m"; "CS2"; "-m"; "VS1";
              |]
              Unix.stdin null null
          in
          ignore (Unix.waitpid [] pid))
    in
    Unix.close null;
    t
  in
  if not (Sys.file_exists same_exe) then
    Printf.printf "same.exe not found next to the bench — section skipped\n"
  else begin
    let reps = if smoke then 2 else 3 in
    let best f =
      let rec go acc n = if n = 0 then acc else go (Float.min acc (f ())) (n - 1) in
      go (f ()) (reps - 1)
    in
    let t_cold = best cold_cli in
    (* Warm path: in-process server on a real socket, one session,
       distinct one-edit requests streamed over one connection. *)
    let socket_path =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "same-bench-%d.sock" (Unix.getpid ()))
    in
    let server =
      Serve.Server.start
        {
          Serve.Server.socket_path;
          cache_dir = None;
          jobs = Exec.default_jobs ();
        }
    in
    Fun.protect
      ~finally:(fun () ->
        Serve.Server.stop server;
        Serve.Server.wait server;
        Sys.remove diagram_path;
        Sys.remove reliability_path)
      (fun () ->
        let client =
          match Serve.Client.connect socket_path with
          | Ok c -> c
          | Error m -> failwith m
        in
        let rpc req =
          match Serve.Client.rpc client req with
          | Ok json -> json
          | Error m -> failwith ("serve bench: " ^ m)
        in
        let session =
          let open_response =
            rpc
              (Serve.Protocol.Open_session
                 {
                   o_diagram = diagram_text;
                   o_reliability = Some (reliability_csv reliability);
                   o_params =
                     [ ("exclude", exclude); ("monitored", monitored) ];
                 })
          in
          match
            Modelio.Json.(Option.bind (member "session" open_response) to_str)
          with
          | Some id -> id
          | None -> failwith "serve bench: open returned no session"
        in
        let edits = if smoke then 12 else 30 in
        (* Request payloads are prepared up front: the latency being
           measured is the daemon round-trip, not the client's CSV
           pretty-printer. *)
        let payloads =
          List.init edits (fun k -> reliability_csv (edited (k + 1)))
        in
        let latencies =
          List.map
            (fun csv ->
              let _, t =
                timed (fun () ->
                    rpc
                      (Serve.Protocol.Edit
                         {
                           e_session = session;
                           e_diagram = None;
                           e_reliability = Some csv;
                         }))
              in
              t)
            payloads
        in
        let sorted = List.sort Float.compare latencies in
        let pct p =
          let n = List.length sorted in
          List.nth sorted (Int.min (n - 1) (p * n / 100))
        in
        let warm_p50 = pct 50 and warm_p99 = pct 99 in
        (* Coalescing: N identical concurrent requests at a fingerprint
           nobody has asked for yet must run exactly one computation.
           The request is deliberately slow (Monte-Carlo assessment) so
           the followers really do arrive while the leader is solving. *)
        let before = Serve.Server.stats server in
        let concurrent = 4 in
        let analyse_request =
          Serve.Protocol.Analyse
            {
              Serve.Protocol.a_analysis = Serve.Protocol.Assess;
              a_diagram = diagram_text;
              a_reliability = Some (reliability_csv reliability);
              a_sm = None;
              a_params =
                [ ("seed", "11"); ("trials", if smoke then "2000000" else "8000000") ];
            }
        in
        let outputs = Array.make concurrent "" in
        let threads =
          List.init concurrent (fun i ->
              Thread.create
                (fun () ->
                  match Serve.Client.one_shot ~socket:socket_path analyse_request with
                  | Ok json ->
                      outputs.(i) <-
                        Option.value ~default:""
                          Modelio.Json.(
                            Option.bind (member "output" json) to_str)
                  | Error m -> failwith ("serve bench: " ^ m))
                ())
        in
        List.iter Thread.join threads;
        let after = Serve.Server.stats server in
        let coalesced_solves =
          after.Serve.Server.analyses_computed
          - before.Serve.Server.analyses_computed
        in
        let identical =
          Array.for_all (fun o -> o = outputs.(0) && o <> "") outputs
        in
        Serve.Client.close client;
        let speedup = t_cold /. warm_p50 in
        Printf.printf "cold CLI (fresh process):    %7.3f s\n" t_cold;
        Printf.printf "warm one-edit p50:           %7.4f s   p99: %7.4f s\n"
          warm_p50 warm_p99;
        Printf.printf "warm speedup over cold CLI:  %7.1fx\n" speedup;
        Printf.printf
          "%d identical concurrent requests -> %d computation(s), outputs \
           identical: %b\n"
          concurrent coalesced_solves identical;
        record_timing "serve/cold_cli" t_cold;
        record_timing "serve/warm_p50" warm_p50;
        json_serve :=
          Modelio.Json.Object
            [
              ("name", Modelio.Json.String "system-b/mcu-fit-edit");
              ("cold_cli_s", Modelio.Json.Number t_cold);
              ("warm_p50_s", Modelio.Json.Number warm_p50);
              ("warm_p99_s", Modelio.Json.Number warm_p99);
              ("speedup", Modelio.Json.Number speedup);
              ( "coalesced_requests",
                Modelio.Json.Number (float_of_int concurrent) );
              ( "coalesced_solves",
                Modelio.Json.Number (float_of_int coalesced_solves) );
              ("identical", Modelio.Json.Bool identical);
            ]
          :: !json_serve)
  end

(* ---------- Bechamel micro-benchmarks ---------- *)

(* Shared runner: measures one test and records its ns/run estimate into
   [kernels_ns_per_run].  [quota] shrinks for smoke runs. *)
let bechamel_run ~quota tests =
  let open Bechamel in
  let benchmark test =
    let instance = Toolkit.Instance.monotonic_clock in
    let cfg =
      Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:(Some 1000) ()
    in
    let raw = Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"g" [ test ]) in
    let results =
      Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false
                     ~predictors:[| Measure.run |]) instance raw
    in
    Hashtbl.iter
      (fun name result ->
        match Analyze.OLS.estimates result with
        | Some [ est ] ->
            json_kernels := (name, est) :: !json_kernels;
            Printf.printf "%-32s %12.1f ns/run\n" name est
        | _ -> Printf.printf "%-32s (no estimate)\n" name)
      results
  in
  List.iter benchmark tests

(* Numeric-layer kernels: a from-scratch DC analysis by the dense oracle
   and by the sparse solver, and the SMW re-solve, on ladders of ~60 to
   ~510 unknowns.  These run in smoke too — they are the regression
   guard for the fast-injection kernels. *)
let kernel_benchmarks ~smoke () =
  section "Kernel micro-benchmarks (numeric layer)";
  let open Bechamel in
  let systems =
    List.map
      (fun sections ->
        let nl = Circuit.Generator.ladder ~sections in
        let p = Circuit.Dc.prepare nl in
        (Circuit.Dc.size p, nl))
      (if smoke then [ 56; 224 ] else [ 56; 224; 480 ])
  in
  let tests =
    List.concat_map
      (fun (n, nl) ->
        [
          Test.make
            ~name:(Printf.sprintf "kernel/dense-analyse/%d" n)
            (Staged.stage (fun () ->
                 ignore (Oracle.Dense_dc.analyse nl)));
          Test.make
            ~name:(Printf.sprintf "kernel/sparse-analyse/%d" n)
            (Staged.stage (fun () ->
                 ignore (Circuit.Dc.analyse nl)));
          (let g =
             match Circuit.Dc.factorise (Circuit.Dc.prepare nl) with
             | Ok g -> g
             | Error _ -> failwith "kernel bench: golden solve failed"
           in
           Test.make
             ~name:(Printf.sprintf "kernel/smw-resolve/%d" n)
             (Staged.stage (fun () ->
                  ignore
                    (Circuit.Dc.inject g ~element_id:"RL5"
                       Circuit.Fault.Open_circuit))));
        ])
      systems
  in
  bechamel_run ~quota:(if smoke then 0.05 else 0.5) tests

let micro_benchmarks () =
  section "Micro-benchmarks (Bechamel, one per analysis kernel)";
  let open Bechamel in
  let psu = Decisive.Case_study.power_supply_netlist in
  let rm = Decisive.Case_study.reliability_model in
  let options = Decisive.Case_study.injection_options in
  let root = Decisive.Case_study.power_supply_root in
  let diagram = Decisive.Case_study.power_supply_diagram in
  let query_env =
    Query.Interp.env_of_models
      [
        ( "Artifact",
          Modelio.Mvalue.of_csv_table
            (Modelio.Csv.to_table
               (Fmea.Table.to_csv ~repeat_component_cells:true
                  (Decisive.Case_study.fmea_via_injection ()))) );
      ]
  in
  let spfm_query = Decisive.Api.spfm_query ~target:Ssam.Requirement.ASIL_B in
  let set1 = List.nth Store.Synthetic.table_vi_sets 1 in
  let tests =
    [
      Test.make ~name:"table4/injection-fmea" (Staged.stage (fun () ->
          ignore (Fmea.Injection_fmea.analyse ~options psu rm)));
      Test.make ~name:"table4/path-fmea" (Staged.stage (fun () ->
          ignore (Fmea.Path_fmea.analyse root)));
      Test.make ~name:"table4/fta-route" (Staged.stage (fun () ->
          ignore (Fta.Fmea_from_fta.analyse root)));
      Test.make ~name:"table4/dc-solve" (Staged.stage (fun () ->
          ignore (Circuit.Dc.analyse psu)));
      Test.make ~name:"table2/federation-query" (Staged.stage (fun () ->
          ignore (Query.Interp.run_string query_env spfm_query)));
      Test.make ~name:"table6/set1-lazy-eval" (Staged.stage (fun () ->
          ignore (Store.Lazy_store.evaluate set1)));
      Test.make ~name:"m2m/blockdiag-to-ssam" (Staged.stage (fun () ->
          ignore (Blockdiag.Transform.to_ssam diagram)));
    ]
  in
  bechamel_run ~quota:0.5 tests

let () =
  (* --smoke (CI): only the fast deterministic sections — enough to catch
     a broken harness and still emit BENCH_results.json. *)
  let smoke = Array.exists (( = ) "--smoke") Sys.argv in
  Printf.printf "DECISIVE / SAME benchmark harness — reproduces the paper's tables%s\n"
    (if smoke then " (smoke run)" else "");
  table1 ();
  table2 ();
  table3 ();
  table4 ();
  table5 ();
  rq1 ();
  rq2 ();
  if not smoke then begin
    table6 ();
    ablation_search ();
    ablation_ripple ();
    ablation_threshold ()
  end;
  extended_metrics ();
  parallel_speedups ~smoke ();
  batch_fmea ~smoke ();
  iteration_loop ();
  serve_bench ~smoke ();
  path_fmea_scaling ~smoke ();
  streaming_search ~smoke ();
  fta ~smoke ();
  assess ~smoke ();
  diagnosis ~smoke ();
  scaling ();
  kernel_benchmarks ~smoke ();
  if not smoke then micro_benchmarks ();
  write_results ();
  match List.rev !gate_failures with
  | [] -> Printf.printf "\nDone.\n"
  | failures ->
      List.iter (Printf.eprintf "gate failed: %s\n") failures;
      exit 1
