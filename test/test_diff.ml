(* Tests for model differencing and change-impact analysis. *)

open Ssam

let meta = Base.meta

let component ~id ?(fit = 10.0) ?(fms = []) () =
  Architecture.component ~fit ~failure_modes:fms ~meta:(meta ~name:id id) ()

let conn i a b =
  Architecture.relationship
    ~meta:(meta (Printf.sprintf "dconn%d" i))
    ~from_component:a ~to_component:b ()

(* A -> B -> C chain with D off to the side. *)
let model_of components relationships =
  Model.create
    ~component_packages:
      [
        Architecture.package ~meta:(meta ~name:"arch" "ap")
          (List.map (fun c -> Architecture.Component c) components
          @ List.map (fun r -> Architecture.Relationship r) relationships);
      ]
    ~meta:(meta "m") ()

let base_components () =
  [ component ~id:"A" (); component ~id:"B" (); component ~id:"C" (); component ~id:"D" () ]

let base_relationships = [ conn 0 "A" "B"; conn 1 "B" "C" ]

let base_model = model_of (base_components ()) base_relationships

let test_no_changes () =
  let impact = Diff.analyse ~old_model:base_model ~new_model:base_model in
  Alcotest.(check int) "no changes" 0 (List.length impact.Diff.changes);
  Alcotest.(check (list string)) "no impact" [] impact.Diff.impacted_components;
  Alcotest.(check bool) "no reanalysis" false impact.Diff.reanalysis_required

let test_added_component () =
  let new_model =
    model_of (component ~id:"E" () :: base_components ()) base_relationships
  in
  let impact = Diff.analyse ~old_model:base_model ~new_model in
  Alcotest.(check bool) "added" true
    (List.exists (function Diff.Added "E" -> true | _ -> false) impact.Diff.changes);
  Alcotest.(check bool) "reanalysis" true impact.Diff.reanalysis_required

let test_removed_component_impacts_downstream () =
  let new_model =
    model_of
      (List.filter (fun c -> Architecture.component_id c <> "A") (base_components ()))
      [ conn 1 "B" "C" ]
  in
  let impact = Diff.analyse ~old_model:base_model ~new_model in
  Alcotest.(check bool) "removed" true
    (List.exists (function Diff.Removed "A" -> true | _ -> false) impact.Diff.changes);
  (* A's former downstream partner B (and transitively C) is impacted. *)
  Alcotest.(check (list string)) "downstream of removed" [ "B"; "C" ]
    impact.Diff.impacted_components

let test_modified_fit_propagates () =
  let new_model =
    model_of
      (List.map
         (fun c ->
           if Architecture.component_id c = "A" then
             { c with Architecture.fit = 99.0 }
           else c)
         (base_components ()))
      base_relationships
  in
  let impact = Diff.analyse ~old_model:base_model ~new_model in
  (match impact.Diff.changes with
  | [ Diff.Modified ("A", what) ] ->
      Alcotest.(check string) "names the field" "FIT" what
  | _ -> Alcotest.fail "expected exactly one modification");
  (* A changed; B and C are downstream; D is untouched. *)
  Alcotest.(check (list string)) "closure" [ "A"; "B"; "C" ]
    impact.Diff.impacted_components

let test_modified_failure_modes_detected () =
  let fm =
    Architecture.failure_mode ~meta:(meta "A:fm")
      ~nature:Architecture.Loss_of_function ~distribution_pct:100.0 ()
  in
  let new_model =
    model_of
      (List.map
         (fun c ->
           if Architecture.component_id c = "A" then
             { c with Architecture.failure_modes = [ fm ] }
           else c)
         (base_components ()))
      base_relationships
  in
  let impact = Diff.analyse ~old_model:base_model ~new_model in
  Alcotest.(check bool) "failure modes flagged" true
    (List.exists
       (function Diff.Modified ("A", what) -> what = "failure modes" | _ -> false)
       impact.Diff.changes)

let test_hazard_changes_trigger_rehara () =
  let with_hazard =
    Model.create
      ~hazard_packages:
        [
          Hazard.package ~meta:(meta ~name:"hz" "hp")
            [
              Hazard.Situation
                (Hazard.situation ~meta:(meta ~name:"H-new" "hnew")
                   ~severity:Hazard.S2 ());
            ];
        ]
      ~component_packages:base_model.Model.component_packages
      ~meta:(meta "m") ()
  in
  let impact = Diff.analyse ~old_model:base_model ~new_model:with_hazard in
  Alcotest.(check bool) "rehara" true impact.Diff.rehara_required;
  Alcotest.(check bool) "reanalysis" true impact.Diff.reanalysis_required;
  (* No component changed, so no component impact. *)
  Alcotest.(check (list string)) "components untouched" []
    impact.Diff.impacted_components

let test_requirement_changes_no_reanalysis () =
  let with_req =
    Model.create
      ~requirement_packages:
        [
          Requirement.package ~meta:(meta ~name:"reqs" "rp")
            [
              Requirement.Requirement
                (Requirement.requirement ~meta:(meta ~name:"R1" "r1") "new req");
            ];
        ]
      ~component_packages:base_model.Model.component_packages
      ~meta:(meta "m") ()
  in
  let impact = Diff.analyse ~old_model:base_model ~new_model:with_req in
  Alcotest.(check bool) "requirement change listed" true
    (List.exists (function Diff.Added "r1" -> true | _ -> false) impact.Diff.changes);
  Alcotest.(check bool) "no 4a re-run for requirements alone" false
    impact.Diff.reanalysis_required

let test_case_study_refinement_impact () =
  (* The DECISIVE iteration of Sec. V: deploying ECC on MC1 modifies MC1;
     nothing is downstream of the load, so the impact set is exactly
     {MC1}. *)
  let old_package = Fixtures.Case_study.power_supply_ssam in
  let new_package =
    {
      old_package with
      Architecture.elements =
        List.map
          (function
            | Architecture.Component c
              when Architecture.component_id c = "MC1" ->
                Architecture.Component
                  {
                    c with
                    Architecture.safety_mechanisms =
                      [
                        Architecture.safety_mechanism
                          ~meta:(meta ~name:"ECC" "MC1:sm:ecc")
                          ~coverage_pct:99.0 ~cost:2.0 ();
                      ];
                  }
            | e -> e)
          old_package.Architecture.elements;
    }
  in
  let wrap p =
    Model.create ~component_packages:[ p ] ~meta:(meta "m") ()
  in
  let impact = Diff.analyse ~old_model:(wrap old_package) ~new_model:(wrap new_package) in
  (* MC1 changed; its only downstream neighbour in the wiring is the
     ground reference. *)
  Alcotest.(check (list string)) "MC1 and its ground" [ "GND1"; "MC1" ]
    impact.Diff.impacted_components;
  Alcotest.(check bool) "reanalysis required" true impact.Diff.reanalysis_required

(* ---------- properties ---------- *)

(* Random flat models over a fixed id alphabet. *)
let gen_model =
  let open QCheck.Gen in
  let ids = [ "A"; "B"; "C"; "D"; "E"; "F" ] in
  let* n = int_range 1 6 in
  let chosen = List.filteri (fun i _ -> i < n) ids in
  let* fits = list_size (return n) (float_range 1.0 500.0) in
  let components =
    List.map2 (fun id fit -> component ~id ~fit ()) chosen fits
  in
  let* rels =
    list_size (int_range 0 8)
      (let* a = oneofl chosen in
       let* b = oneofl chosen in
       return (a, b))
  in
  let relationships =
    List.mapi (fun i (a, b) -> conn i a b)
      (List.filter (fun (a, b) -> a <> b) rels)
  in
  return (model_of components relationships)

let prop_self_diff_empty =
  QCheck.Test.make ~count:100 ~name:"diff of a model with itself is empty"
    (QCheck.make gen_model) (fun m ->
      let impact = Diff.analyse ~old_model:m ~new_model:m in
      impact.Diff.changes = []
      && impact.Diff.impacted_components = []
      && (not impact.Diff.reanalysis_required)
      && not impact.Diff.rehara_required)

(* A deterministic permutation driven by the seed list. *)
let permute seeds l =
  List.fold_left
    (fun acc seed ->
      let n = List.length acc in
      if n < 2 then acc
      else
        let k = abs seed mod n in
        let item = List.nth acc k in
        item :: List.filteri (fun i _ -> i <> k) acc)
    l seeds

let prop_add_remove_order_independent =
  QCheck.Test.make ~count:100
    ~name:"Added/Removed verdicts survive element reordering"
    QCheck.(small_list int)
    (fun seeds ->
      (* old = A..D; new = (B..D + E) reordered: exactly one Added "A"
         missing, one Added "E", whatever the storage order. *)
      let news =
        permute seeds
          (component ~id:"E" ()
          :: List.filter
               (fun c -> Architecture.component_id c <> "A")
               (base_components ()))
      in
      let new_model = model_of news (permute seeds base_relationships) in
      let impact = Diff.analyse ~old_model:base_model ~new_model in
      let added =
        List.filter_map
          (function Diff.Added id -> Some id | _ -> None)
          impact.Diff.changes
      in
      let removed =
        List.filter_map
          (function Diff.Removed id -> Some id | _ -> None)
          impact.Diff.changes
      in
      List.sort String.compare added = [ "E" ]
      && List.sort String.compare removed = [ "A" ])

let test_cycle_closure_terminates () =
  (* A → B → C → A with D off-cycle: the downstream closure of a change
     to A must traverse the cycle once and stop. *)
  let cyclic rels = model_of (base_components ()) rels in
  let rels = [ conn 0 "A" "B"; conn 1 "B" "C"; conn 2 "C" "A" ] in
  let new_model =
    model_of
      (List.map
         (fun c ->
           if Architecture.component_id c = "A" then
             { c with Architecture.fit = 77.0 }
           else c)
         (base_components ()))
      rels
  in
  let impact = Diff.analyse ~old_model:(cyclic rels) ~new_model in
  Alcotest.(check (list string))
    "cycle closure is the whole cycle, D untouched" [ "A"; "B"; "C" ]
    impact.Diff.impacted_components

let suite =
  [
    Alcotest.test_case "no changes" `Quick test_no_changes;
    QCheck_alcotest.to_alcotest prop_self_diff_empty;
    QCheck_alcotest.to_alcotest prop_add_remove_order_independent;
    Alcotest.test_case "connection cycle closure" `Quick
      test_cycle_closure_terminates;
    Alcotest.test_case "added component" `Quick test_added_component;
    Alcotest.test_case "removed impacts downstream" `Quick
      test_removed_component_impacts_downstream;
    Alcotest.test_case "modified FIT propagates" `Quick test_modified_fit_propagates;
    Alcotest.test_case "modified failure modes" `Quick
      test_modified_failure_modes_detected;
    Alcotest.test_case "hazard changes trigger re-HARA" `Quick
      test_hazard_changes_trigger_rehara;
    Alcotest.test_case "requirement-only changes" `Quick
      test_requirement_changes_no_reanalysis;
    Alcotest.test_case "case-study refinement impact" `Quick
      test_case_study_refinement_impact;
  ]
