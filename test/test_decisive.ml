(* Tests for the DECISIVE core: the workflow engine, the Section V case
   study, Systems A/B, runtime monitoring and the facade API. *)

open Decisive
open Fixtures

(* ---------- Process (workflow engine) ---------- *)

let plan p =
  Process.perform p Process.Step1_plan
    ~produces:
      [
        (Process.System_definition, "def");
        (Process.Function_requirements, "reqs");
        (Process.Hazard_log, "log");
      ]

let design p =
  Process.perform p Process.Step2_design
    ~produces:
      [
        (Process.Safety_requirements, "sr");
        (Process.Architectural_design, "arch");
      ]

let reliability p =
  Process.perform p Process.Step3_reliability
    ~produces:[ (Process.Component_reliability_model, "rm") ]

let evaluate p =
  Process.perform p Process.Step4a_evaluate
    ~produces:
      [
        (Process.Component_safety_analysis_model, "fmea");
        (Process.Architecture_metrics, "spfm");
      ]

let ok = function
  | Ok p -> p
  | Error e -> Alcotest.fail (Format.asprintf "%a" Process.pp_error e)

let test_process_happy_path () =
  let p = Process.start ~name:"t" ~target:Ssam.Requirement.ASIL_B in
  let p = ok (plan p) in
  let p = ok (design p) in
  let p = ok (reliability p) in
  let p = ok (evaluate p) in
  let p = Process.record_spfm p 96.77 in
  let p =
    ok
      (Process.perform p Process.Step5_safety_concept
         ~produces:[ (Process.Safety_concept, "concept") ])
  in
  Alcotest.(check bool) "complete" true (Process.is_complete p);
  Alcotest.(check int) "artifacts recorded" 9 (List.length (Process.artifacts p))

let test_process_ordering_enforced () =
  let p = Process.start ~name:"t" ~target:Ssam.Requirement.ASIL_B in
  (match design p with
  | Error (Process.Wrong_order _) -> ()
  | _ -> Alcotest.fail "expected Wrong_order");
  let p = ok (plan p) in
  match reliability p with
  | Error (Process.Wrong_order _) -> ()
  | _ -> Alcotest.fail "Step 3 straight after Step 1 must fail"

let test_process_prerequisites () =
  let p = Process.start ~name:"t" ~target:Ssam.Requirement.ASIL_B in
  (* Step 1 performed but producing nothing: Step 2 lacks prerequisites. *)
  let p = ok (Process.perform p Process.Step1_plan ~produces:[]) in
  match design p with
  | Error (Process.Missing_prerequisite { needs = Process.System_definition; _ }) -> ()
  | _ -> Alcotest.fail "expected Missing_prerequisite"

let test_process_step5_gate () =
  let p = Process.start ~name:"t" ~target:Ssam.Requirement.ASIL_B in
  let p = ok (plan p) in
  let p = ok (design p) in
  let p = ok (reliability p) in
  let p = ok (evaluate p) in
  let p = Process.record_spfm p 50.0 in
  (match
     Process.perform p Process.Step5_safety_concept
       ~produces:[ (Process.Safety_concept, "c") ]
   with
  | Error (Process.Not_acceptably_safe _) -> ()
  | _ -> Alcotest.fail "Step 5 must be gated on the target");
  (* Step 4b then 4a again is allowed. *)
  let p =
    ok
      (Process.perform p Process.Step4b_refine
         ~produces:[ (Process.Safety_mechanism_model, "sm") ])
  in
  let p = ok (evaluate p) in
  let p = Process.record_spfm p 95.0 in
  let p =
    ok
      (Process.perform p Process.Step5_safety_concept
         ~produces:[ (Process.Safety_concept, "c") ])
  in
  Alcotest.(check bool) "complete after refinement" true (Process.is_complete p)

let test_process_iterate () =
  let p = Process.start ~name:"t" ~target:Ssam.Requirement.ASIL_B in
  let p = ok (plan p) in
  let p = Process.iterate p in
  Alcotest.(check int) "iteration bumped" 2 (Process.iteration p);
  (* After iterate, Step 2 is reachable again (artefacts are kept). *)
  match design p with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Format.asprintf "%a" Process.pp_error e)

(* ---------- Case study ---------- *)

let test_case_study_spfm_numbers () =
  let before = Case_study.fmea_via_injection () in
  Alcotest.(check (float 0.005)) "5.38%" 5.38 (Fmea.Metrics.spfm before);
  let after = Case_study.fmeda before in
  Alcotest.(check (float 0.005)) "96.77%" 96.77 (Fmea.Metrics.spfm after)

let test_case_study_h1_assessment () =
  let log = Hara.assess ~name:"psu" Case_study.hazard_h1 in
  (* S3/E4/C2 lands on ASIL-C in the risk graph. *)
  Alcotest.(check bool) "assessed" true
    (Hara.highest_asil log = Some Ssam.Requirement.ASIL_C)

let test_case_study_ssam_is_valid () =
  let model =
    Ssam.Model.create ~component_packages:[ Case_study.power_supply_ssam ]
      ~meta:(Ssam.Base.meta "m") ()
  in
  Alcotest.(check int) "no errors" 0
    (List.length
       (List.filter
          (fun f -> f.Ssam.Validate.f_severity = Ssam.Validate.Error)
          (Ssam.Validate.findings model)))

let test_pll_table_i () =
  let t = Case_study.pll_fmeda ~fit:50.0 in
  Alcotest.(check int) "three modes" 3 (List.length t.Fmea.Table.rows);
  let dists =
    List.map (fun (r : Fmea.Table.row) -> r.Fmea.Table.distribution_pct) t.Fmea.Table.rows
  in
  Alcotest.(check (list (float 1e-9))) "Table I distributions" [ 40.1; 28.7; 31.2 ] dists;
  (* Residual: watchdog 70% on lower-frequency, nothing on higher, lockstep
     99% on jitter. *)
  let spf =
    List.map (fun (r : Fmea.Table.row) -> r.Fmea.Table.single_point_fit) t.Fmea.Table.rows
  in
  (match spf with
  | [ lower; higher; jitter ] ->
      Alcotest.(check (float 1e-6)) "lower freq" (50.0 *. 0.401 *. 0.30) lower;
      Alcotest.(check (float 1e-6)) "higher freq" (50.0 *. 0.287) higher;
      Alcotest.(check (float 1e-6)) "jitter" (50.0 *. 0.312 *. 0.01) jitter
  | _ -> Alcotest.fail "unexpected rows")

(* ---------- Systems A and B ---------- *)

let test_system_sizes () =
  Alcotest.(check int) "System A has 102 elements" 102
    (Systems.element_count Systems.system_a);
  Alcotest.(check int) "System B has 230 elements" 230
    (Systems.element_count Systems.system_b)

(* The lint block-diagram rules give Systems A and B no error. *)
let test_systems_validate () =
  let errors d =
    List.filter_map
      (fun (x : Lint.Rule.diagnostic) ->
        if x.Lint.Rule.d_severity = Lint.Rule.Error then Some x.Lint.Rule.rule_id
        else None)
      (Lint.Driver.run ~jobs:1
         { Lint.Input.empty with Lint.Input.diagram = Some ("d.bd", d) })
  in
  Alcotest.(check (list string)) "A clean" [] (errors Systems.system_a.Systems.diagram);
  Alcotest.(check (list string)) "B clean" [] (errors Systems.system_b.Systems.diagram)

let test_system_b_has_software () =
  let model = Systems.ssam_model Systems.system_b in
  let sw =
    List.filter
      (fun (c : Ssam.Architecture.component) ->
        c.Ssam.Architecture.component_type = Ssam.Architecture.Software)
      (Ssam.Model.components model)
  in
  Alcotest.(check int) "twelve software tasks" 12 (List.length sw)

let test_system_fmea_reasonable () =
  let t = Systems.automated_fmea Systems.system_a in
  let sr = Fmea.Table.safety_related_components t in
  (* The power path is safety-related; padding test points are not. *)
  List.iter
    (fun c -> Alcotest.(check bool) (c ^ " found") true (List.mem c sr))
    [ "SW1"; "D1"; "L1"; "L2"; "MC1" ];
  Alcotest.(check bool) "no test points" true
    (not (List.exists (fun c -> String.length c > 1 && String.sub c 0 2 = "TP") sr))

(* ---------- Monitor ---------- *)

let dynamic_component =
  Ssam.Architecture.component ~dynamic:true
    ~io_nodes:
      [
        Ssam.Architecture.io_node ~lower_limit:4.5 ~upper_limit:5.5
          ~meta:(Ssam.Base.meta ~name:"vdd" "c:io:vdd")
          Ssam.Architecture.Input;
        Ssam.Architecture.io_node
          ~meta:(Ssam.Base.meta ~name:"nolimits" "c:io:x")
          Ssam.Architecture.Output;
      ]
    ~meta:(Ssam.Base.meta ~name:"C" "C")
    ()

let test_monitor_generation () =
  let m = Monitor.generate_component dynamic_component in
  (* Only the limited IO node yields a check. *)
  Alcotest.(check int) "one check" 1 (List.length (Monitor.checks m));
  (* A static component yields none. *)
  let static = { dynamic_component with Ssam.Architecture.dynamic = false } in
  Alcotest.(check int) "static yields none" 0
    (List.length (Monitor.checks (Monitor.generate_component static)))

let test_monitor_observations () =
  let m = Monitor.generate_component dynamic_component in
  Alcotest.(check bool) "in range" true
    (Monitor.observe m ~component:"C" ~node:"c:io:vdd" ~value:5.0 ~at:1.0 = None);
  (match Monitor.observe m ~component:"C" ~node:"c:io:vdd" ~value:4.0 ~at:2.0 with
  | Some { Monitor.bound = `Below 4.5; _ } -> ()
  | _ -> Alcotest.fail "expected below-bound violation");
  (match Monitor.observe m ~component:"C" ~node:"c:io:vdd" ~value:6.0 ~at:3.0 with
  | Some { Monitor.bound = `Above 5.5; _ } -> ()
  | _ -> Alcotest.fail "expected above-bound violation");
  Alcotest.(check bool) "unmonitored node ignored" true
    (Monitor.observe m ~component:"C" ~node:"c:io:x" ~value:99.0 ~at:4.0 = None);
  let violations =
    Monitor.observe_all m ~at:5.0
      [ ("C", "c:io:vdd", 5.0); ("C", "c:io:vdd", 9.9); ("C", "c:io:x", 0.0) ]
  in
  Alcotest.(check int) "batch" 1 (List.length violations)

(* ---------- Api ---------- *)

let test_api_routes_agree_on_quickstart () =
  let diagram = Case_study.power_supply_diagram in
  let rm = Case_study.reliability_model in
  let injection = Api.analyse ~exclude:[ "DC1" ] diagram rm in
  let paths = Api.analyse ~route:Api.Via_ssam_paths ~exclude:[ "DC1" ] diagram rm in
  let sr t = List.sort String.compare (Fmea.Table.safety_related_components t) in
  Alcotest.(check (list string)) "injection vs path route" (sr injection) (sr paths)

let test_api_refine () =
  let table = Case_study.fmea_via_injection () in
  let r =
    Api.refine ~target:Ssam.Requirement.ASIL_B
      ~component_types:[ ("MC1", "microcontroller") ]
      table Case_study.sm_model
  in
  Alcotest.(check bool) "meets" true r.Api.meets_target;
  Alcotest.(check (float 0.005)) "spfm" 96.77 r.Api.achieved_spfm;
  Alcotest.(check bool) "front nonempty" true (r.Api.pareto_front <> [])

let test_api_run_decisive_completes () =
  let process, table, deployments =
    Api.run_decisive ~name:"psu" ~target:Ssam.Requirement.ASIL_B
      ~exclude:[ "DC1" ] Case_study.power_supply_diagram
      Case_study.reliability_model Case_study.sm_model
  in
  Alcotest.(check bool) "complete" true (Process.is_complete process);
  Alcotest.(check (list (pair string string))) "deployed ECC on MC1"
    [ ("ECC", "MC1") ]
    (List.map
       (fun (d : Fmea.Fmeda.deployment) ->
         ( d.Fmea.Fmeda.mechanism.Reliability.Sm_model.sm_name,
           d.Fmea.Fmeda.target_component ))
       deployments);
  Alcotest.(check (float 0.005)) "final spfm" 96.77 (Fmea.Metrics.spfm table);
  (* SPFM history shows the improvement across the loop. *)
  Alcotest.(check (option (float 0.005))) "recorded" (Some 96.77)
    (Process.latest_spfm process)

(* An unmet target ends the one pass short of Step 5 instead of
   re-running Step 1 on the same inputs. *)
let test_api_run_decisive_unmet () =
  let process, table, deployments =
    Api.run_decisive ~name:"psu" ~target:Ssam.Requirement.ASIL_D
      ~exclude:[ "DC1" ] Case_study.power_supply_diagram
      Case_study.reliability_model Case_study.sm_model
  in
  Alcotest.(check bool) "not complete" false (Process.is_complete process);
  Alcotest.(check int) "one iteration" 1 (Process.iteration process);
  Alcotest.(check bool) "misses ASIL-D" false
    (Fmea.Asil.meets ~target:Ssam.Requirement.ASIL_D
       ~spfm:(Fmea.Metrics.spfm table));
  Alcotest.(check int) "no deployment" 0 (List.length deployments)

let test_api_export_and_assure () =
  let table = Case_study.fmeda (Case_study.fmea_via_injection ()) in
  let path = Filename.temp_file "fmeda" ".csv" in
  Api.export_fmeda ~path table;
  let case =
    Api.assurance_case_for ~system:"psu" ~target:Ssam.Requirement.ASIL_B
      ~fmeda_csv:path
  in
  Alcotest.(check (list string)) "case structure valid" [] (Assurance.Sacm.validate case);
  let report = Assurance.Eval.evaluate case in
  Sys.remove path;
  Alcotest.(check bool) "holds" true
    (report.Assurance.Eval.overall = Assurance.Eval.Holds)

let test_api_fta_route () =
  (* The FTA route needs boundary structure; run it on the curated root. *)
  let t = Fta.Fmea_from_fta.analyse Case_study.power_supply_root in
  Alcotest.(check (list string)) "fta route SR set" [ "D1"; "L1"; "MC1" ]
    (List.sort String.compare (Fmea.Table.safety_related_components t))

let suite =
  [
    Alcotest.test_case "process happy path" `Quick test_process_happy_path;
    Alcotest.test_case "process ordering" `Quick test_process_ordering_enforced;
    Alcotest.test_case "process prerequisites" `Quick test_process_prerequisites;
    Alcotest.test_case "process step5 gate" `Quick test_process_step5_gate;
    Alcotest.test_case "process iterate" `Quick test_process_iterate;
    Alcotest.test_case "case study SPFM numbers" `Quick test_case_study_spfm_numbers;
    Alcotest.test_case "case study H1 assessment" `Quick test_case_study_h1_assessment;
    Alcotest.test_case "case study SSAM valid" `Quick test_case_study_ssam_is_valid;
    Alcotest.test_case "PLL Table I" `Quick test_pll_table_i;
    Alcotest.test_case "system sizes" `Quick test_system_sizes;
    Alcotest.test_case "systems validate" `Quick test_systems_validate;
    Alcotest.test_case "system B software" `Quick test_system_b_has_software;
    Alcotest.test_case "system A FMEA" `Quick test_system_fmea_reasonable;
    Alcotest.test_case "monitor generation" `Quick test_monitor_generation;
    Alcotest.test_case "monitor observations" `Quick test_monitor_observations;
    Alcotest.test_case "api routes agree" `Quick test_api_routes_agree_on_quickstart;
    Alcotest.test_case "api refine" `Quick test_api_refine;
    Alcotest.test_case "api run_decisive" `Quick test_api_run_decisive_completes;
    Alcotest.test_case "api run_decisive unmet target" `Quick
      test_api_run_decisive_unmet;
    Alcotest.test_case "api export + assure" `Quick test_api_export_and_assure;
    Alcotest.test_case "api fta route" `Quick test_api_fta_route;
  ]

let software_suite =
  let test_software_single_points () =
    let t = Systems.software_fmea Systems.system_b in
    Alcotest.(check (list string)) "control chain"
      [ "ALLOC"; "CTRL"; "DRV_THR"; "FUSION"; "GUIDANCE"; "NAV" ]
      (List.sort String.compare (Fmea.Table.safety_related_components t));
    (* Redundant sensor drivers and side tasks are not single points. *)
    List.iter
      (fun id ->
        Alcotest.(check bool) (id ^ " not SR") true
          (not (List.mem id (Fmea.Table.safety_related_components t))))
      [ "DRV_IMU"; "DRV_SONAR"; "DRV_GPS"; "LOG"; "WDT"; "HEALTH" ]
  in
  let test_software_refinement () =
    let t = Systems.software_fmea Systems.system_b in
    let r =
      Api.refine ~target:Ssam.Requirement.ASIL_B
        ~component_types:(List.map (fun c -> (c, "task")) (Fmea.Table.components t))
        t Systems.system_b.Systems.safety_mechanisms
    in
    Alcotest.(check bool) "software reaches ASIL-B" true r.Api.meets_target
  in
  let test_system_a_has_no_software () =
    match Systems.software_fmea Systems.system_a with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  [
    Alcotest.test_case "software single points" `Quick test_software_single_points;
    Alcotest.test_case "software refinement" `Quick test_software_refinement;
    Alcotest.test_case "system A has no software" `Quick test_system_a_has_no_software;
  ]
