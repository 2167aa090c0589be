(* Tests for hazard analysis and risk assessment: the ISO 26262 risk graph
   and hazard-log derivation. *)

open Ssam

let test_risk_graph_corners () =
  let d = Hara.Risk.determine in
  Alcotest.(check bool) "max is ASIL-D" true
    (d ~severity:Hazard.S3 ~exposure:Hazard.E4 ~controllability:Hazard.C3
    = Requirement.ASIL_D);
  Alcotest.(check bool) "S0 always QM" true
    (d ~severity:Hazard.S0 ~exposure:Hazard.E4 ~controllability:Hazard.C3
    = Requirement.QM);
  Alcotest.(check bool) "min nonzero is QM" true
    (d ~severity:Hazard.S1 ~exposure:Hazard.E1 ~controllability:Hazard.C1
    = Requirement.QM)

let test_risk_graph_ladder () =
  (* ISO 26262-3 Table 4 spot checks. *)
  let d = Hara.Risk.determine in
  Alcotest.(check bool) "S3/E4/C2 -> C" true
    (d ~severity:Hazard.S3 ~exposure:Hazard.E4 ~controllability:Hazard.C2
    = Requirement.ASIL_C);
  Alcotest.(check bool) "S3/E3/C3 -> C" true
    (d ~severity:Hazard.S3 ~exposure:Hazard.E3 ~controllability:Hazard.C3
    = Requirement.ASIL_C);
  Alcotest.(check bool) "S2/E4/C3 -> C" true
    (d ~severity:Hazard.S2 ~exposure:Hazard.E4 ~controllability:Hazard.C3
    = Requirement.ASIL_C);
  Alcotest.(check bool) "S3/E2/C2 -> A" true
    (d ~severity:Hazard.S3 ~exposure:Hazard.E2 ~controllability:Hazard.C2
    = Requirement.ASIL_A);
  Alcotest.(check bool) "S2/E3/C3 -> B" true
    (d ~severity:Hazard.S2 ~exposure:Hazard.E3 ~controllability:Hazard.C3
    = Requirement.ASIL_B);
  Alcotest.(check bool) "S1/E4/C3 -> B" true
    (d ~severity:Hazard.S1 ~exposure:Hazard.E4 ~controllability:Hazard.C3
    = Requirement.ASIL_B)

(* Property: the risk graph is monotone — raising any class never lowers
   the ASIL. *)
let prop_risk_monotone =
  let severities = [| Hazard.S0; Hazard.S1; Hazard.S2; Hazard.S3 |] in
  let exposures = [| Hazard.E1; Hazard.E2; Hazard.E3; Hazard.E4 |] in
  let controllabilities = [| Hazard.C1; Hazard.C2; Hazard.C3 |] in
  let level l =
    match l with
    | Requirement.QM -> 0
    | Requirement.ASIL_A -> 1
    | Requirement.ASIL_B -> 2
    | Requirement.ASIL_C -> 3
    | Requirement.ASIL_D -> 4
    | Requirement.SIL n -> n
  in
  QCheck.Test.make ~name:"risk graph is monotone" ~count:200
    QCheck.(triple (int_range 0 3) (int_range 0 3) (int_range 0 2))
    (fun (s, e, c) ->
      let base =
        level
          (Hara.Risk.determine ~severity:severities.(s) ~exposure:exposures.(e)
             ~controllability:controllabilities.(c))
      in
      let up i max_i = Int.min (i + 1) max_i in
      level
        (Hara.Risk.determine
           ~severity:severities.(up s 3)
           ~exposure:exposures.(e) ~controllability:controllabilities.(c))
      >= base
      && level
           (Hara.Risk.determine ~severity:severities.(s)
              ~exposure:exposures.(up e 3)
              ~controllability:controllabilities.(c))
         >= base
      && level
           (Hara.Risk.determine ~severity:severities.(s) ~exposure:exposures.(e)
              ~controllability:controllabilities.(up c 2))
         >= base)

let sample_package =
  let situation ~id ~sev ~e ~c =
    Hazard.situation ~exposure:e ~controllability:c
      ~meta:(Base.meta ~name:id id) ~severity:sev ()
  in
  Hazard.package ~meta:(Base.meta ~name:"hazards" "pkg")
    [
      Hazard.Situation (situation ~id:"H-low" ~sev:Hazard.S1 ~e:Hazard.E2 ~c:Hazard.C1);
      Hazard.Situation (situation ~id:"H-high" ~sev:Hazard.S3 ~e:Hazard.E4 ~c:Hazard.C2);
      Hazard.Situation
        (Hazard.situation ~meta:(Base.meta ~name:"H-unassessed" "H-u")
           ~severity:Hazard.S2 ());
    ]

let test_assess () =
  let log = Hara.assess ~name:"test" sample_package in
  Alcotest.(check int) "all situations kept" 3 (List.length log.Hara.entries);
  (* Highest priority first; unassessed entries sink to the bottom. *)
  (match log.Hara.entries with
  | first :: _ ->
      Alcotest.(check string) "highest first" "H-high"
        (Base.display_name first.Hara.situation.Hazard.hs_meta)
  | [] -> Alcotest.fail "empty log");
  (match List.rev log.Hara.entries with
  | last :: _ ->
      Alcotest.(check bool) "unassessed last" true (last.Hara.asil = None)
  | [] -> Alcotest.fail "empty log");
  Alcotest.(check bool) "highest asil" true
    (Hara.highest_asil log = Some Requirement.ASIL_C)

let test_derive_requirements () =
  let log = Hara.assess ~name:"test" sample_package in
  let reqs = Hara.derive_requirements log in
  (* Only the two assessed situations yield requirements. *)
  Alcotest.(check int) "two requirements" 2 (List.length reqs);
  List.iter
    (fun (r : Requirement.requirement) ->
      Alcotest.(check bool) "has integrity" true (Option.is_some r.Requirement.integrity);
      Alcotest.(check bool) "cites its hazard" true (r.Requirement.meta.Base.cites <> []))
    reqs

let test_to_package_valid () =
  let log = Hara.assess ~name:"test" sample_package in
  let req_pkg = Hara.to_package ~package_id:"pkg-derived" log in
  (* Requirements + Derives relationships. *)
  Alcotest.(check int) "elements" 4 (List.length req_pkg.Requirement.elements);
  (* The combined model must validate (relationship targets resolve to the
     hazard package). *)
  let model =
    Model.create ~requirement_packages:[ req_pkg ]
      ~hazard_packages:[ sample_package ] ~meta:(Base.meta "m") ()
  in
  Alcotest.(check int) "no dangling traces" 0
    (List.length
       (List.filter
          (fun f -> f.Validate.f_severity = Validate.Error)
          (Validate.findings model)))

let suite =
  [
    Alcotest.test_case "risk graph corners" `Quick test_risk_graph_corners;
    Alcotest.test_case "risk graph ladder" `Quick test_risk_graph_ladder;
    QCheck_alcotest.to_alcotest prop_risk_monotone;
    Alcotest.test_case "assess" `Quick test_assess;
    Alcotest.test_case "derive requirements" `Quick test_derive_requirements;
    Alcotest.test_case "to_package validates" `Quick test_to_package_valid;
  ]
