(* Tests for the SSAM metamodel: base facilities, the four modules, the
   model container and well-formedness validation. *)

open Ssam

(* ---------- Lang_string / Base ---------- *)

let test_lang_string () =
  let set = [ Lang_string.v "hello"; Lang_string.v ~lang:"de" "hallo" ] in
  Alcotest.(check string) "preferred en" "hello" (Lang_string.preferred set);
  Alcotest.(check string) "preferred de" "hallo" (Lang_string.preferred ~lang:"de" set);
  Alcotest.(check string) "fallback" "hello" (Lang_string.preferred ~lang:"fr" set);
  Alcotest.(check string) "empty" "" (Lang_string.preferred [])

let test_meta () =
  let m = Base.meta ~name:"D1" ~description:"a diode" ~cites:[ "H1" ] "d1" in
  Alcotest.(check string) "display name" "D1" (Base.display_name m);
  Alcotest.(check string) "unnamed falls back to id" "x"
    (Base.display_name (Base.meta "x"));
  Alcotest.(check (list string)) "cites" [ "H1" ] m.Base.cites

let test_fresh_ids () =
  Base.reset_fresh_ids ();
  let a = Base.fresh_id ~prefix:"c" () in
  let b = Base.fresh_id ~prefix:"c" () in
  Alcotest.(check bool) "distinct" true (a <> b);
  Base.reset_fresh_ids ();
  Alcotest.(check string) "deterministic after reset" a (Base.fresh_id ~prefix:"c" ())

let test_external_reference () =
  let r =
    Base.external_reference
      ~validation:(Base.constraint_ ~id:"q" "Model.rows.size()")
      ~location:"data.csv" ~model_type:"csv" ()
  in
  Alcotest.(check string) "location" "data.csv" r.Base.location;
  Alcotest.(check bool) "validation" true (Option.is_some r.Base.validation)

(* ---------- Requirement ---------- *)

let test_integrity_levels () =
  Alcotest.(check (option string)) "asil-b" (Some "ASIL-B")
    (Option.map Requirement.integrity_level_to_string
       (Requirement.integrity_level_of_string "asil_b"));
  Alcotest.(check (option string)) "bare letter" (Some "ASIL-D")
    (Option.map Requirement.integrity_level_to_string
       (Requirement.integrity_level_of_string "D"));
  Alcotest.(check (option string)) "sil" (Some "SIL3")
    (Option.map Requirement.integrity_level_to_string
       (Requirement.integrity_level_of_string "SIL3"));
  Alcotest.(check bool) "sil out of range" true
    (Requirement.integrity_level_of_string "SIL9" = None);
  Alcotest.(check bool) "junk" true (Requirement.integrity_level_of_string "XX" = None);
  (* The ordering used by Hara.highest_asil: QM < A < B < C < D. *)
  Alcotest.(check bool) "ordering" true
    (Requirement.compare_integrity_level Requirement.ASIL_D Requirement.ASIL_B > 0
    && Requirement.compare_integrity_level Requirement.QM Requirement.ASIL_A < 0)

let req_package =
  let r1 =
    Requirement.requirement ~integrity:Requirement.ASIL_B
      ~meta:(Base.meta ~name:"SR-1" "sr1") "shall not fail"
  in
  let r2 = Requirement.requirement ~meta:(Base.meta ~name:"R-2" "r2") "shall log" in
  let rel =
    Requirement.relationship ~meta:(Base.meta "rel1") ~kind:Requirement.Derives
      ~source:"sr1" ~target:"r2"
  in
  Requirement.package
    ~interfaces:
      [ { Requirement.interface_meta = Base.meta "if1"; exports = [ "sr1" ] } ]
    ~meta:(Base.meta ~name:"reqs" "pkg-req")
    [ Requirement.Requirement r1; Requirement.Requirement r2; Requirement.Relationship rel ]

let test_requirement_package () =
  Alcotest.(check int) "requirements" 2 (List.length (Requirement.requirements req_package));
  Alcotest.(check int) "relationships" 1 (List.length (Requirement.relationships req_package));
  let sr =
    List.filter Requirement.is_safety_requirement (Requirement.requirements req_package)
  in
  Alcotest.(check int) "safety requirements" 1 (List.length sr);
  let iface = List.hd req_package.Requirement.interfaces in
  Alcotest.(check int) "exports resolve" 1
    (List.length (Requirement.exported_elements req_package iface));
  Alcotest.(check bool) "find" true (Option.is_some (Requirement.find req_package "r2"))

(* ---------- Hazard ---------- *)

let hazard_package =
  let h1 =
    Hazard.situation ~exposure:Hazard.E4 ~controllability:Hazard.C2
      ~probability:1e-6
      ~causes:[ Hazard.cause ~meta:(Base.meta "c1") "wear" ]
      ~meta:(Base.meta ~name:"H1" "h1") ~severity:Hazard.S3 ()
  in
  let h2 =
    Hazard.situation ~meta:(Base.meta ~name:"H2" "h2") ~severity:Hazard.S1 ()
  in
  let cm =
    Hazard.measure ~safety_decision:"deploy ECC" ~mitigates:[ "h1" ]
      ~effectiveness:{ Hazard.verified = true; effectiveness_pct = 99.0 }
      ~meta:(Base.meta ~name:"CM1" "cm1") ()
  in
  Hazard.package ~meta:(Base.meta ~name:"hazards" "pkg-haz")
    [ Hazard.Situation h1; Hazard.Situation h2; Hazard.Measure cm ]

let test_hazard_package () =
  Alcotest.(check int) "situations" 2 (List.length (Hazard.situations hazard_package));
  Alcotest.(check int) "measures" 1 (List.length (Hazard.measures hazard_package));
  Alcotest.(check int) "measures_for h1" 1
    (List.length (Hazard.measures_for hazard_package "h1"));
  let unmitigated = Hazard.unmitigated hazard_package in
  Alcotest.(check (list string)) "unmitigated" [ "h2" ]
    (List.map (fun (s : Hazard.hazardous_situation) -> s.Hazard.hs_meta.Base.id) unmitigated)

(* ---------- Architecture ---------- *)

let leaf ~id ?(fit = 10.0) ?(fms = []) () =
  Architecture.component ~fit ~failure_modes:fms ~meta:(Base.meta ~name:id id) ()

let fm ~id ?(nature = Architecture.Loss_of_function) ?(dist = 100.0) () =
  Architecture.failure_mode ~meta:(Base.meta ~name:id id) ~nature
    ~distribution_pct:dist ()

let test_tolerance_strings () =
  List.iter
    (fun (t, s) ->
      Alcotest.(check string) "to_string" s (Architecture.tolerance_to_string t);
      Alcotest.(check bool) "of_string" true
        (Architecture.tolerance_of_string s = Some t))
    [
      (Architecture.OneOoOne, "1oo1");
      (Architecture.OneOoTwo, "1oo2");
      (Architecture.OneOoThree, "1oo3");
      (Architecture.TwoOoThree, "2oo3");
    ];
  (* The paper writes 1001/1002/2003 in its font; accept those too. *)
  Alcotest.(check bool) "numeric alias" true
    (Architecture.tolerance_of_string "2003" = Some Architecture.TwoOoThree)

let nested =
  let inner_child = leaf ~id:"inner-leaf" ~fms:[ fm ~id:"ilf" () ] () in
  let inner =
    Architecture.component ~children:[ inner_child ]
      ~meta:(Base.meta ~name:"inner" "inner")
      ()
  in
  let a = leaf ~id:"a" ~fms:[ fm ~id:"afm" () ] () in
  Architecture.component ~component_type:Architecture.System
    ~children:[ a; inner ]
    ~connections:
      [
        Architecture.relationship ~meta:(Base.meta "conn1") ~from_component:"a"
          ~to_component:"inner" ();
      ]
    ~meta:(Base.meta ~name:"root" "root")
    ()

let test_traversals () =
  let ids = ref [] in
  Architecture.iter_components
    (fun c -> ids := Architecture.component_id c :: !ids)
    nested;
  Alcotest.(check (list string)) "pre-order"
    [ "root"; "a"; "inner"; "inner-leaf" ]
    (List.rev !ids);
  Alcotest.(check int) "fold count" 4
    (Architecture.fold_components (fun n _ -> n + 1) 0 nested);
  Alcotest.(check (list string)) "leaves" [ "a"; "inner-leaf" ]
    (List.map Architecture.component_id (Architecture.leaf_components nested));
  Alcotest.(check bool) "find nested" true
    (Option.is_some (Architecture.find_component nested "inner-leaf"));
  Alcotest.(check bool) "find missing" true
    (Architecture.find_component nested "zzz" = None)

let test_count_elements () =
  (* root(1) + conn(1) + a(1) + afm(1) + inner(1) + inner-leaf(1) + ilf(1) = 7 *)
  Alcotest.(check int) "count" 7 (Architecture.count_elements nested)

let test_total_fit () =
  Alcotest.(check (float 1e-9)) "leaf fit sum" 20.0 (Architecture.total_fit nested)

let test_is_loss_like () =
  Alcotest.(check bool) "loss" true (Architecture.is_loss_like Architecture.Loss_of_function);
  Alcotest.(check bool) "erroneous" false (Architecture.is_loss_like Architecture.Erroneous);
  Alcotest.(check bool) "other" false (Architecture.is_loss_like (Architecture.Other "x"))

let test_io_direction () =
  let io dir name = Architecture.io_node ~meta:(Base.meta name) dir in
  let c =
    Architecture.component
      ~io_nodes:
        [ io Architecture.Input "i1"; io Architecture.Output "o1";
          io Architecture.Bidirectional "b1" ]
      ~meta:(Base.meta "c") ()
  in
  Alcotest.(check int) "inputs (bidir included)" 2 (List.length (Architecture.inputs c));
  Alcotest.(check int) "outputs (bidir included)" 2 (List.length (Architecture.outputs c))

(* ---------- Model + index ---------- *)

let full_model =
  Model.create
    ~requirement_packages:[ req_package ]
    ~hazard_packages:[ hazard_package ]
    ~component_packages:
      [
        Architecture.package ~meta:(Base.meta ~name:"arch" "pkg-arch")
          [ Architecture.Component nested ];
      ]
    ~mbsa_packages:
      [
        Mbsa.package
          ~component_packages:[ "pkg-arch" ]
          ~artifacts:
            [
              Mbsa.artifact_reference ~iteration:1 ~meta:(Base.meta "art1")
                ~kind:Mbsa.FMEA ~location:"fmea.csv" ();
              Mbsa.artifact_reference ~iteration:2 ~meta:(Base.meta "art2")
                ~kind:Mbsa.FMEA ~location:"fmea2.csv" ();
            ]
          ~meta:(Base.meta ~name:"mbsa" "pkg-mbsa") ();
      ]
    ~meta:(Base.meta ~name:"m" "model-1") ()

let test_model_index () =
  let idx = Model.index full_model in
  Alcotest.(check bool) "component" true
    (match Model.lookup idx "inner-leaf" with
    | Some (Model.E_component _) -> true
    | _ -> false);
  Alcotest.(check bool) "failure mode" true
    (match Model.lookup idx "ilf" with
    | Some (Model.E_failure_mode _) -> true
    | _ -> false);
  Alcotest.(check bool) "requirement" true
    (match Model.lookup idx "sr1" with
    | Some (Model.E_requirement _) -> true
    | _ -> false);
  Alcotest.(check bool) "hazard cause" true
    (match Model.lookup idx "c1" with
    | Some (Model.E_cause _) -> true
    | _ -> false);
  Alcotest.(check bool) "missing" true (Model.lookup idx "nope" = None)

let test_model_count () =
  (* model(1) + req pkg(1+3) + hazard pkg(1+3+1 cause) + arch pkg(1+7) +
     mbsa pkg(1+2 artifacts) = 21 *)
  Alcotest.(check int) "count_elements" 21 (Model.count_elements full_model)

let test_model_components () =
  Alcotest.(check int) "all components" 4 (List.length (Model.components full_model));
  Alcotest.(check bool) "find_component" true
    (Option.is_some (Model.find_component full_model "inner"))

let test_mbsa_latest () =
  let mbsa = List.hd full_model.Model.mbsa_packages in
  match Mbsa.latest_artifact mbsa Mbsa.FMEA with
  | Some a -> Alcotest.(check int) "latest iteration" 2 a.Mbsa.iteration
  | None -> Alcotest.fail "expected artifact"

(* ---------- Validate ---------- *)

let test_validate_clean () =
  Alcotest.(check bool) "clean model is valid" true (Validate.is_valid full_model);
  Alcotest.(check int) "no errors" 0
    (List.length
       (List.filter
          (fun f -> f.Validate.f_severity = Validate.Error)
          (Validate.findings full_model)))

let model_of_component c =
  Model.create
    ~component_packages:
      [ Architecture.package ~meta:(Base.meta "pkg") [ Architecture.Component c ] ]
    ~meta:(Base.meta "m") ()

let test_validate_duplicate_ids () =
  let c =
    Architecture.component
      ~children:[ leaf ~id:"dup" (); leaf ~id:"dup" () ]
      ~meta:(Base.meta "root") ()
  in
  let findings = Validate.findings (model_of_component c) in
  Alcotest.(check bool) "duplicate flagged" true
    (List.exists (fun f -> f.Validate.f_message = "duplicate element id") findings)

let test_validate_negative_fit () =
  let c = leaf ~id:"bad" ~fit:(-1.0) () in
  let findings = Validate.findings (model_of_component c) in
  Alcotest.(check bool) "negative FIT flagged" true
    (List.exists
       (fun f -> f.Validate.f_severity = Validate.Error && f.Validate.f_message = "negative FIT")
       findings)

let test_validate_distribution_sum () =
  let c = leaf ~id:"c" ~fms:[ fm ~id:"f1" ~dist:30.0 (); fm ~id:"f2" ~dist:30.0 () ] () in
  let findings = Validate.findings (model_of_component c) in
  Alcotest.(check bool) "sum warning" true
    (List.exists (fun f -> f.Validate.f_severity = Validate.Warning) findings)

let test_validate_bad_distribution () =
  let c = leaf ~id:"c" ~fms:[ fm ~id:"f1" ~dist:150.0 () ] () in
  let findings = Validate.findings (model_of_component c) in
  Alcotest.(check bool) "range error" true
    (List.exists (fun f -> f.Validate.f_severity = Validate.Error) findings)

let test_validate_dangling_cite () =
  let c =
    Architecture.component
      ~meta:(Base.meta ~cites:[ "ghost" ] "c")
      ()
  in
  let findings = Validate.findings (model_of_component c) in
  Alcotest.(check bool) "dangling cite" true
    (List.exists
       (fun f -> f.Validate.f_message = "dangling cite reference to 'ghost'")
       findings)

let test_validate_dangling_relationship () =
  let c =
    Architecture.component
      ~children:[ leaf ~id:"a" () ]
      ~connections:
        [
          Architecture.relationship ~meta:(Base.meta "r") ~from_component:"a"
            ~to_component:"ghost" ();
        ]
      ~meta:(Base.meta "root") ()
  in
  let findings = Validate.findings (model_of_component c) in
  Alcotest.(check bool) "dangling endpoint" true
    (List.exists
       (fun f ->
         f.Validate.f_severity = Validate.Error
         && f.Validate.f_message = "dangling relationship endpoint 'ghost'")
       findings)

let test_validate_sm_covers () =
  let c =
    Architecture.component
      ~failure_modes:[ fm ~id:"f1" () ]
      ~safety_mechanisms:
        [
          Architecture.safety_mechanism ~covers:[ "not-an-fm" ]
            ~meta:(Base.meta "sm1") ~coverage_pct:99.0 ~cost:1.0 ();
        ]
      ~meta:(Base.meta "c") ()
  in
  let findings = Validate.findings (model_of_component c) in
  Alcotest.(check bool) "sm covers error" true
    (List.exists (fun f -> f.Validate.f_severity = Validate.Error) findings)

let test_validate_io_limits () =
  let io =
    Architecture.io_node ~lower_limit:5.0 ~upper_limit:1.0
      ~meta:(Base.meta "io1") Architecture.Input
  in
  let c = Architecture.component ~io_nodes:[ io ] ~meta:(Base.meta "c") () in
  let findings = Validate.findings (model_of_component c) in
  Alcotest.(check bool) "inverted limits" true
    (List.exists (fun f -> f.Validate.f_severity = Validate.Error) findings)

let test_validate_bad_coverage () =
  let c =
    Architecture.component
      ~failure_modes:[ fm ~id:"f1" () ]
      ~safety_mechanisms:
        [
          Architecture.safety_mechanism ~covers:[ "f1" ] ~meta:(Base.meta "sm1")
            ~coverage_pct:120.0 ~cost:1.0 ();
        ]
      ~meta:(Base.meta "c") ()
  in
  let findings = Validate.findings (model_of_component c) in
  Alcotest.(check bool) "coverage range" true
    (List.exists (fun f -> f.Validate.f_severity = Validate.Error) findings)

let suite =
  [
    Alcotest.test_case "lang strings" `Quick test_lang_string;
    Alcotest.test_case "meta" `Quick test_meta;
    Alcotest.test_case "fresh ids" `Quick test_fresh_ids;
    Alcotest.test_case "external reference" `Quick test_external_reference;
    Alcotest.test_case "integrity levels" `Quick test_integrity_levels;
    Alcotest.test_case "requirement package" `Quick test_requirement_package;
    Alcotest.test_case "hazard package" `Quick test_hazard_package;
    Alcotest.test_case "tolerance strings" `Quick test_tolerance_strings;
    Alcotest.test_case "traversals" `Quick test_traversals;
    Alcotest.test_case "count elements" `Quick test_count_elements;
    Alcotest.test_case "total fit" `Quick test_total_fit;
    Alcotest.test_case "is_loss_like" `Quick test_is_loss_like;
    Alcotest.test_case "io direction" `Quick test_io_direction;
    Alcotest.test_case "model index" `Quick test_model_index;
    Alcotest.test_case "model count" `Quick test_model_count;
    Alcotest.test_case "model components" `Quick test_model_components;
    Alcotest.test_case "mbsa latest artifact" `Quick test_mbsa_latest;
    Alcotest.test_case "validate clean" `Quick test_validate_clean;
    Alcotest.test_case "validate duplicate ids" `Quick test_validate_duplicate_ids;
    Alcotest.test_case "validate negative fit" `Quick test_validate_negative_fit;
    Alcotest.test_case "validate distribution sum" `Quick test_validate_distribution_sum;
    Alcotest.test_case "validate bad distribution" `Quick test_validate_bad_distribution;
    Alcotest.test_case "validate dangling cite" `Quick test_validate_dangling_cite;
    Alcotest.test_case "validate dangling relationship" `Quick
      test_validate_dangling_relationship;
    Alcotest.test_case "validate sm covers" `Quick test_validate_sm_covers;
    Alcotest.test_case "validate io limits" `Quick test_validate_io_limits;
    Alcotest.test_case "validate bad coverage" `Quick test_validate_bad_coverage;
  ]
