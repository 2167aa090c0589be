(* Tests for requirement allocation, the traceability matrix and the
   safety-concept report. *)

open Ssam

let meta = Base.meta

let hazard_pkg =
  Hazard.package ~meta:(meta ~name:"hz" "hp")
    [
      Hazard.Situation
        (Hazard.situation ~meta:(meta ~name:"H1" "h1") ~severity:Hazard.S3 ());
    ]

let requirement ~id ?integrity ?(cites = []) text =
  Requirement.requirement ?integrity ~meta:(meta ~name:id ~cites id) text

let req_pkg =
  Requirement.package ~meta:(meta ~name:"reqs" "rp")
    [
      Requirement.Requirement
        (requirement ~id:"SR-1" ~integrity:Requirement.ASIL_B ~cites:[ "h1" ]
           "mitigate H1");
      Requirement.Requirement
        (requirement ~id:"SR-2" ~integrity:Requirement.ASIL_D "stay alive");
      Requirement.Requirement (requirement ~id:"R-3" "non-safety nicety");
    ]

let component ~id ?integrity ?(fms = []) () =
  Architecture.component ?integrity ~fit:10.0 ~failure_modes:fms
    ~meta:(meta ~name:id id) ()

let arch_pkg =
  Architecture.package ~meta:(meta ~name:"arch" "ap")
    [
      Architecture.Component
        (component ~id:"MCU" ~integrity:Requirement.ASIL_B
           ~fms:
             [
               Architecture.failure_mode ~hazards:[ "h1" ]
                 ~meta:(meta ~name:"RAM" "mcu:fm")
                 ~nature:Architecture.Loss_of_function ~distribution_pct:100.0 ();
             ]
           ());
      Architecture.Component (component ~id:"AUX" ~integrity:Requirement.ASIL_A ());
    ]

let model =
  Model.create ~requirement_packages:[ req_pkg ] ~hazard_packages:[ hazard_pkg ]
    ~component_packages:[ arch_pkg ]
    ~meta:(meta ~name:"m" "m")
    ()

let mbsa_with traces =
  Mbsa.package ~traces ~meta:(meta ~name:"mbsa" "mp") ()

let test_complete_allocation () =
  let mbsa =
    mbsa_with
      [
        Allocation.allocate ~requirement:"SR-1" ~component:"MCU";
        Allocation.allocate ~requirement:"SR-2" ~component:"MCU";
      ]
  in
  let violations = Allocation.check model mbsa in
  (* SR-2 is ASIL-D on an ASIL-B component: insufficient. *)
  Alcotest.(check int) "one violation" 1 (List.length violations);
  (match violations with
  | [ Allocation.Insufficient_integrity { requirement = "SR-2"; _ } ] -> ()
  | _ -> Alcotest.fail "expected an integrity violation for SR-2");
  Alcotest.(check bool) "complete (everything allocated)" true
    (Allocation.is_complete model mbsa)

let test_unallocated_detected () =
  let mbsa = mbsa_with [ Allocation.allocate ~requirement:"SR-1" ~component:"MCU" ] in
  let violations = Allocation.check model mbsa in
  Alcotest.(check bool) "SR-2 unallocated" true
    (List.exists (function Allocation.Unallocated "SR-2" -> true | _ -> false) violations);
  (* Non-safety requirement R-3 does not need allocation. *)
  Alcotest.(check bool) "R-3 exempt" true
    (not
       (List.exists
          (function Allocation.Unallocated "R-3" -> true | _ -> false)
          violations));
  Alcotest.(check bool) "not complete" false (Allocation.is_complete model mbsa)

let test_dangling_and_wrong_kinds () =
  let mbsa =
    mbsa_with
      [
        Allocation.allocate ~requirement:"SR-1" ~component:"GHOST";
        Allocation.allocate ~requirement:"h1" ~component:"MCU";
        Allocation.allocate ~requirement:"SR-2" ~component:"h1";
      ]
  in
  let violations = Allocation.check model mbsa in
  Alcotest.(check bool) "dangling" true
    (List.exists (function Allocation.Dangling _ -> true | _ -> false) violations);
  Alcotest.(check bool) "not a requirement" true
    (List.exists
       (function Allocation.Not_a_requirement _ -> true | _ -> false)
       violations);
  Alcotest.(check bool) "not a component" true
    (List.exists
       (function Allocation.Not_a_component _ -> true | _ -> false)
       violations)

let test_matrix () =
  let mbsa = mbsa_with [ Allocation.allocate ~requirement:"SR-1" ~component:"MCU" ] in
  let rows = Allocation.matrix model mbsa in
  (* Two safety requirements -> two rows; R-3 excluded. *)
  Alcotest.(check int) "two rows" 2 (List.length rows);
  let sr1 = List.find (fun r -> r.Allocation.requirement_id = "SR-1") rows in
  Alcotest.(check (list string)) "SR-1 allocated" [ "MCU" ] sr1.Allocation.allocated_to;
  let sr2 = List.find (fun r -> r.Allocation.requirement_id = "SR-2") rows in
  Alcotest.(check (list string)) "SR-2 empty" [] sr2.Allocation.allocated_to

let test_auto_allocate () =
  (* SR-1 cites h1; MCU's failure mode cites h1 -> auto-allocated. *)
  let mbsa = Allocation.auto_allocate model (mbsa_with []) in
  let rows = Allocation.matrix model mbsa in
  let sr1 = List.find (fun r -> r.Allocation.requirement_id = "SR-1") rows in
  Alcotest.(check (list string)) "SR-1 auto-allocated to MCU" [ "MCU" ]
    sr1.Allocation.allocated_to;
  (* SR-2 cites nothing: stays unallocated. *)
  let sr2 = List.find (fun r -> r.Allocation.requirement_id = "SR-2") rows in
  Alcotest.(check (list string)) "SR-2 untouched" [] sr2.Allocation.allocated_to;
  (* Idempotent: re-running adds nothing. *)
  let again = Allocation.auto_allocate model mbsa in
  Alcotest.(check int) "idempotent" (List.length mbsa.Mbsa.traces)
    (List.length again.Mbsa.traces)

(* ---------- report ---------- *)

let contains haystack needle =
  let n = String.length haystack and m = String.length needle in
  let rec go i = i + m <= n && (String.sub haystack i m = needle || go (i + 1)) in
  m = 0 || go 0

let test_report_content () =
  let fmeda = Fixtures.Case_study.fmeda (Fixtures.Case_study.fmea_via_injection ()) in
  let log = Hara.assess ~name:"psu" Fixtures.Case_study.hazard_h1 in
  let requirements = Hara.derive_requirements log in
  let input =
    Decisive.Report.make_input ~hazard_log:log ~requirements
      ~system_name:"PSU" ~target:Ssam.Requirement.ASIL_B fmeda
  in
  let md = Decisive.Report.to_markdown input in
  Alcotest.(check bool) "verdict" true (Decisive.Report.verdict input);
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "mentions %S" needle) true
        (contains md needle))
    [
      "# Safety concept: PSU";
      "acceptably safe";
      "The power supply fails unexpectedly";
      "SPFM | 96.77%";
      "LFM | 94.44%";
      "| MC1 | 300 | Yes | RAM Failure | 100% | ECC | 99% | 3 FIT |";
      "Analysis warnings";
    ]

let test_report_failing_design () =
  let fmeda = Fixtures.Case_study.fmea_via_injection () in
  let input =
    Decisive.Report.make_input ~system_name:"PSU" ~target:Ssam.Requirement.ASIL_B
      fmeda
  in
  Alcotest.(check bool) "fails" false (Decisive.Report.verdict input);
  Alcotest.(check bool) "says not safe" true
    (contains (Decisive.Report.to_markdown input) "NOT acceptably safe")

let test_report_save () =
  let fmeda = Fixtures.Case_study.fmeda (Fixtures.Case_study.fmea_via_injection ()) in
  let input =
    Decisive.Report.make_input ~system_name:"PSU" ~target:Ssam.Requirement.ASIL_B
      fmeda
  in
  let path = Filename.temp_file "report" ".md" in
  Decisive.Report.save ~path input;
  let ic = open_in path in
  let content = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  Alcotest.(check string) "file matches" (Decisive.Report.to_markdown input) content

let suite =
  [
    Alcotest.test_case "complete allocation" `Quick test_complete_allocation;
    Alcotest.test_case "unallocated detected" `Quick test_unallocated_detected;
    Alcotest.test_case "dangling and wrong kinds" `Quick test_dangling_and_wrong_kinds;
    Alcotest.test_case "matrix" `Quick test_matrix;
    Alcotest.test_case "auto allocate" `Quick test_auto_allocate;
    Alcotest.test_case "report content" `Quick test_report_content;
    Alcotest.test_case "report failing design" `Quick test_report_failing_design;
    Alcotest.test_case "report save" `Quick test_report_save;
  ]
