(* Tests for the automated FME(D)A: tables, Algorithm 1 (path FMEA),
   failure-injection FMEA, FMEDA application and the SPFM metric —
   including the paper's exact published numbers. *)

open Ssam

let leaf ~id ?(fit = 10.0) ?(fms = []) ?(functions = []) () =
  Architecture.component ~fit ~failure_modes:fms ~functions
    ~meta:(Base.meta ~name:id id) ()

let fm ~id ?(nature = Architecture.Loss_of_function) ?(dist = 100.0) () =
  Architecture.failure_mode ~meta:(Base.meta ~name:id id) ~nature
    ~distribution_pct:dist ()

let conn i a b =
  Architecture.relationship
    ~meta:(Base.meta (Printf.sprintf "conn%d" i))
    ~from_component:a ~to_component:b ()

let composite ~id ~children ~connections =
  Architecture.component ~component_type:Architecture.System ~children
    ~connections ~meta:(Base.meta ~name:id id) ()

(* ---------- Table ---------- *)

let test_make_row_spf () =
  let r =
    Fmea.Table.make_row ~component:"D1" ~component_fit:10.0 ~failure_mode:"Open"
      ~distribution_pct:30.0 ~safety_related:true ()
  in
  Alcotest.(check (float 1e-12)) "spf share" 3.0 r.Fmea.Table.single_point_fit;
  let covered =
    Fmea.Table.make_row ~sm_coverage_pct:99.0 ~safety_mechanism:"ECC"
      ~component:"MC1" ~component_fit:300.0 ~failure_mode:"RAM"
      ~distribution_pct:100.0 ~safety_related:true ()
  in
  Alcotest.(check (float 1e-12)) "residual after coverage" 3.0
    covered.Fmea.Table.single_point_fit;
  let not_sr =
    Fmea.Table.make_row ~component:"C1" ~component_fit:2.0 ~failure_mode:"Open"
      ~distribution_pct:30.0 ~safety_related:false ()
  in
  Alcotest.(check (float 1e-12)) "non-SR contributes 0" 0.0
    not_sr.Fmea.Table.single_point_fit

let sample_table =
  {
    Fmea.Table.system_name = "s";
    rows =
      [
        Fmea.Table.make_row ~component:"A" ~component_fit:10.0 ~failure_mode:"x"
          ~distribution_pct:50.0 ~safety_related:true ();
        Fmea.Table.make_row ~component:"A" ~component_fit:10.0 ~failure_mode:"y"
          ~distribution_pct:50.0 ~safety_related:false ();
        Fmea.Table.make_row ~warning:"check me" ~component:"B" ~component_fit:5.0
          ~failure_mode:"z" ~distribution_pct:100.0 ~safety_related:false ();
      ];
  }

let test_table_accessors () =
  Alcotest.(check (list string)) "components" [ "A"; "B" ]
    (Fmea.Table.components sample_table);
  Alcotest.(check (list string)) "sr components" [ "A" ]
    (Fmea.Table.safety_related_components sample_table);
  Alcotest.(check int) "rows_for" 2 (List.length (Fmea.Table.rows_for sample_table "A"));
  Alcotest.(check (list (pair string string))) "warnings" [ ("B", "check me") ]
    (Fmea.Table.warnings sample_table)

let test_table_csv_layout () =
  let csv = Fmea.Table.to_csv sample_table in
  Alcotest.(check int) "header + 3 rows" 4 (List.length csv);
  (* Continuation rows blank the component/FIT cells. *)
  (match csv with
  | _ :: _ :: second_a :: _ ->
      Alcotest.(check string) "blank component" "" (List.nth second_a 0);
      Alcotest.(check string) "blank fit" "" (List.nth second_a 1)
  | _ -> Alcotest.fail "unexpected csv shape");
  let repeated = Fmea.Table.to_csv ~repeat_component_cells:true sample_table in
  (match repeated with
  | _ :: _ :: second_a :: _ ->
      Alcotest.(check string) "repeated component" "A" (List.nth second_a 0)
  | _ -> Alcotest.fail "unexpected csv shape")

let test_merge_sensitivity () =
  Alcotest.(check (float 1e-9)) "identical" 0.0
    (Fmea.Table.merge_sensitivity ~golden:sample_table ~other:sample_table);
  let flipped =
    {
      sample_table with
      Fmea.Table.rows =
        List.map
          (fun (r : Fmea.Table.row) ->
            if r.Fmea.Table.failure_mode = "y" then
              { r with Fmea.Table.safety_related = true }
            else r)
          sample_table.Fmea.Table.rows;
    }
  in
  Alcotest.(check (float 0.01)) "one of three" 33.33
    (Fmea.Table.merge_sensitivity ~golden:sample_table ~other:flipped);
  (* Rows present on one side only count as differences. *)
  let missing =
    { sample_table with Fmea.Table.rows = List.tl sample_table.Fmea.Table.rows }
  in
  Alcotest.(check (float 0.01)) "missing row" 33.33
    (Fmea.Table.merge_sensitivity ~golden:sample_table ~other:missing)

(* ---------- Path FMEA (Algorithm 1) ---------- *)

let series_system =
  (* in -> A -> B -> out: both are single points. *)
  composite ~id:"S"
    ~children:[ leaf ~id:"A" ~fms:[ fm ~id:"A:f" () ] (); leaf ~id:"B" ~fms:[ fm ~id:"B:f" () ] () ]
    ~connections:[ conn 0 "S" "A"; conn 1 "A" "B"; conn 2 "B" "S" ]

let parallel_system =
  (* in -> (A | B) -> C -> out: only C is a single point. *)
  composite ~id:"P"
    ~children:
      [
        leaf ~id:"A" ~fms:[ fm ~id:"A:f" () ] ();
        leaf ~id:"B" ~fms:[ fm ~id:"B:f" () ] ();
        leaf ~id:"C" ~fms:[ fm ~id:"C:f" () ] ();
      ]
    ~connections:
      [
        conn 0 "P" "A";
        conn 1 "P" "B";
        conn 2 "A" "C";
        conn 3 "B" "C";
        conn 4 "C" "P";
      ]

let test_paths_series () =
  Alcotest.(check int) "one path" 1 (List.length (Fmea.Path_fmea.paths series_system));
  Alcotest.(check (list string)) "path contents" [ "A"; "B" ]
    (List.map Architecture.component_id (List.hd (Fmea.Path_fmea.paths series_system)))

let test_paths_parallel () =
  Alcotest.(check int) "two paths" 2 (List.length (Fmea.Path_fmea.paths parallel_system))

let test_algorithm1_series () =
  let t = Fmea.Path_fmea.analyse series_system in
  Alcotest.(check (list string)) "both single points" [ "A"; "B" ]
    (Fmea.Table.safety_related_components t)

let test_algorithm1_parallel () =
  let t = Fmea.Path_fmea.analyse parallel_system in
  Alcotest.(check (list string)) "only C" [ "C" ]
    (Fmea.Table.safety_related_components t)

let test_algorithm1_warning_branch () =
  (* Non-loss failure modes get Algorithm 1's warning, not a verdict. *)
  let sys =
    composite ~id:"W"
      ~children:[ leaf ~id:"A" ~fms:[ fm ~id:"A:e" ~nature:Architecture.Erroneous () ] () ]
      ~connections:[ conn 0 "W" "A"; conn 1 "A" "W" ]
  in
  let t = Fmea.Path_fmea.analyse sys in
  Alcotest.(check int) "warning emitted" 1 (List.length (Fmea.Table.warnings t));
  Alcotest.(check (list string)) "nothing safety-related" []
    (Fmea.Table.safety_related_components t)

let test_algorithm1_excluded () =
  let options = { Fmea.Path_fmea.default_options with exclude = [ "A" ] } in
  let t = Fmea.Path_fmea.analyse ~options series_system in
  Alcotest.(check (list string)) "A excluded" [ "B" ]
    (Fmea.Table.safety_related_components t)

let test_algorithm1_redundancy () =
  (* A component whose functions are all redundant is never a single point. *)
  let redundant_fn =
    Architecture.func ~meta:(Base.meta "fn1") Architecture.OneOoTwo
  in
  let sys =
    composite ~id:"R"
      ~children:
        [
          leaf ~id:"A" ~fms:[ fm ~id:"A:f" () ] ~functions:[ redundant_fn ] ();
          leaf ~id:"B" ~fms:[ fm ~id:"B:f" () ] ();
        ]
      ~connections:[ conn 0 "R" "A"; conn 1 "A" "B"; conn 2 "B" "R" ]
  in
  let t = Fmea.Path_fmea.analyse sys in
  Alcotest.(check (list string)) "redundant A tolerated" [ "B" ]
    (Fmea.Table.safety_related_components t)

let test_algorithm1_recursion () =
  (* Nested composite: the inner leaf is analysed too ("repeat this
     algorithm for c"). *)
  let inner =
    composite ~id:"inner"
      ~children:[ leaf ~id:"IL" ~fms:[ fm ~id:"IL:f" () ] () ]
      ~connections:[ conn 10 "inner" "IL"; conn 11 "IL" "inner" ]
  in
  let sys =
    composite ~id:"outer"
      ~children:[ inner; leaf ~id:"X" ~fms:[ fm ~id:"X:f" () ] () ]
      ~connections:[ conn 0 "outer" "inner"; conn 1 "inner" "X"; conn 2 "X" "outer" ]
  in
  let t = Fmea.Path_fmea.analyse sys in
  Alcotest.(check (list string)) "inner leaf analysed" [ "IL"; "X" ]
    (List.sort String.compare (Fmea.Table.safety_related_components t));
  let no_recurse =
    Fmea.Path_fmea.analyse
      ~options:{ Fmea.Path_fmea.default_options with recurse = false }
      sys
  in
  Alcotest.(check (list string)) "recursion off" [ "X" ]
    (Fmea.Table.safety_related_components no_recurse)

let test_algorithm1_no_boundary_fallback () =
  (* Without boundary connections, sources/sinks fall back to in/out degree. *)
  let sys =
    composite ~id:"F"
      ~children:[ leaf ~id:"A" ~fms:[ fm ~id:"A:f" () ] (); leaf ~id:"B" ~fms:[ fm ~id:"B:f" () ] () ]
      ~connections:[ conn 0 "A" "B" ]
  in
  let t = Fmea.Path_fmea.analyse sys in
  Alcotest.(check (list string)) "series via fallback" [ "A"; "B" ]
    (Fmea.Table.safety_related_components t)

let test_analyse_package_flat () =
  let pkg =
    Architecture.package ~meta:(Base.meta ~name:"flat" "pkg-flat")
      [
        Architecture.Component (leaf ~id:"A" ~fms:[ fm ~id:"A:f" () ] ());
        Architecture.Component (leaf ~id:"B" ~fms:[ fm ~id:"B:f" () ] ());
        Architecture.Relationship (conn 0 "A" "B");
      ]
  in
  let t = Fmea.Path_fmea.analyse_package pkg in
  Alcotest.(check (list string)) "flat package wrapped" [ "A"; "B" ]
    (Fmea.Table.safety_related_components t)

(* Property: on random series-parallel chains, a component is
   safety-related iff it appears in every path. *)
let prop_algorithm1_consistency =
  QCheck.Test.make ~name:"Algorithm 1 agrees with path membership" ~count:80
    QCheck.(list_of_size (QCheck.Gen.int_range 1 6) (QCheck.int_range 1 3))
    (fun widths ->
      (* Stage i has widths[i] parallel branches; stages in series.
         QCheck shrinking can step outside int_range; clamp defensively. *)
      let widths = List.map (fun w -> Int.max 1 (Int.min 3 w)) widths in
      let children = ref [] in
      let connections = ref [] in
      let stage_ids =
        List.mapi
          (fun i width ->
            List.init width (fun j ->
                let id = Printf.sprintf "s%d_%d" i j in
                children := leaf ~id ~fms:[ fm ~id:(id ^ ":f") () ] () :: !children;
                id))
          widths
      in
      let root = "root" in
      let k = ref 0 in
      let add a b =
        incr k;
        connections := conn !k a b :: !connections
      in
      (match stage_ids with
      | first :: _ -> List.iter (fun id -> add root id) first
      | [] -> ());
      let rec wire = function
        | a :: (b :: _ as rest) ->
            List.iter (fun x -> List.iter (fun y -> add x y) b) a;
            wire rest
        | [ last ] -> List.iter (fun id -> add id root) last
        | [] -> ()
      in
      wire stage_ids;
      let sys =
        composite ~id:root ~children:(List.rev !children)
          ~connections:(List.rev !connections)
      in
      let t = Fmea.Path_fmea.analyse sys in
      let sr = Fmea.Table.safety_related_components t in
      (* Expected: exactly the members of width-1 stages. *)
      let expected =
        List.concat
          (List.mapi (fun i w -> if w = 1 then [ Printf.sprintf "s%d_0" i ] else []) widths)
      in
      List.sort String.compare sr = List.sort String.compare expected)

(* ---------- Injection FMEA: the paper's exact case study ---------- *)

let test_table_iv_exact () =
  let t = Fixtures.Case_study.fmea_via_injection () in
  Alcotest.(check (list string)) "safety-related components (Table IV)"
    [ "D1"; "L1"; "MC1" ]
    (Fmea.Table.safety_related_components t);
  let row comp mode =
    List.find
      (fun (r : Fmea.Table.row) ->
        r.Fmea.Table.component = comp && r.Fmea.Table.failure_mode = mode)
      t.Fmea.Table.rows
  in
  (* D1: Open Yes 3 FIT, Short No. *)
  Alcotest.(check bool) "D1 open SR" true (row "D1" "Open").Fmea.Table.safety_related;
  Alcotest.(check (float 1e-9)) "D1 open 3 FIT" 3.0
    (row "D1" "Open").Fmea.Table.single_point_fit;
  Alcotest.(check bool) "D1 short not SR" false (row "D1" "Short").Fmea.Table.safety_related;
  (* L1: Open Yes 4.5 FIT. *)
  Alcotest.(check (float 1e-9)) "L1 open 4.5 FIT" 4.5
    (row "L1" "Open").Fmea.Table.single_point_fit;
  (* MC1: RAM Failure Yes 300 FIT before ECC. *)
  Alcotest.(check (float 1e-9)) "MC1 300 FIT" 300.0
    (row "MC1" "RAM Failure").Fmea.Table.single_point_fit;
  (* SPFM 5.38 % (paper Sec. V-A). *)
  Alcotest.(check (float 0.005)) "SPFM 5.38%" 5.38 (Fmea.Metrics.spfm t)

let test_table_iv_after_ecc () =
  let t = Fixtures.Case_study.fmeda (Fixtures.Case_study.fmea_via_injection ()) in
  let mc1 =
    List.find
      (fun (r : Fmea.Table.row) ->
        r.Fmea.Table.component = "MC1" && r.Fmea.Table.safety_related)
      t.Fmea.Table.rows
  in
  Alcotest.(check (option string)) "ECC deployed" (Some "ECC")
    mc1.Fmea.Table.safety_mechanism;
  Alcotest.(check (float 1e-9)) "MC1 drops to 3 FIT" 3.0
    mc1.Fmea.Table.single_point_fit;
  Alcotest.(check (float 0.005)) "SPFM 96.77%" 96.77 (Fmea.Metrics.spfm t);
  Alcotest.(check bool) "achieves ASIL-B" true
    (Fmea.Asil.meets ~target:Requirement.ASIL_B ~spfm:(Fmea.Metrics.spfm t))

let test_routes_agree () =
  let inj = Fixtures.Case_study.fmea_via_injection () in
  let path = Fixtures.Case_study.fmea_via_ssam () in
  Alcotest.(check (list string)) "same safety-related set"
    (Fmea.Table.safety_related_components inj)
    (Fmea.Table.safety_related_components path);
  Alcotest.(check (float 0.001)) "same SPFM" (Fmea.Metrics.spfm inj)
    (Fmea.Metrics.spfm path)

let test_capacitor_exclusion_warning () =
  (* The stable-supply assumption: capacitor shorts are excluded with a
     warning, not classified (this is what keeps Table IV capacitor-free). *)
  let t = Fixtures.Case_study.fmea_via_injection () in
  let warnings = Fmea.Table.warnings t in
  Alcotest.(check bool) "C1 excluded" true (List.mem_assoc "C1" warnings);
  Alcotest.(check bool) "C2 excluded" true (List.mem_assoc "C2" warnings)

let test_classify_single () =
  let nl = Fixtures.Case_study.power_supply_netlist in
  (match
     Fmea.Injection_fmea.classify_single nl ~element_id:"D1"
       Circuit.Fault.Open_circuit
   with
  | `Safety_related _ -> ()
  | _ -> Alcotest.fail "D1 open should be safety-related");
  match
    Fmea.Injection_fmea.classify_single nl ~element_id:"L1"
      Circuit.Fault.Short_circuit
  with
  | `No_effect -> ()
  | _ -> Alcotest.fail "L1 short (already a DC short) should have no effect"

let test_injection_threshold_sensitivity () =
  (* D1 short moves CS1 by ~15%: below the default 20% threshold, above a
     10% threshold. *)
  let nl = Fixtures.Case_study.power_supply_netlist in
  let tight =
    { Fmea.Injection_fmea.default_options with threshold_rel = 0.10 }
  in
  (match
     Fmea.Injection_fmea.classify_single ~options:tight nl ~element_id:"D1"
       Circuit.Fault.Short_circuit
   with
  | `Safety_related _ -> ()
  | _ -> Alcotest.fail "tight threshold should flag D1 short");
  match
    Fmea.Injection_fmea.classify_single nl ~element_id:"D1"
      Circuit.Fault.Short_circuit
  with
  | `No_effect -> ()
  | _ -> Alcotest.fail "default threshold should pass D1 short"

let test_golden_run_failure () =
  let nl =
    Circuit.Netlist.of_elements "broken"
      [
        (* Two ideal sources fighting over one node: singular system. *)
        Circuit.Element.make ~id:"V1" ~kind:(Circuit.Element.Vsource 5.0) "a" "gnd";
        Circuit.Element.make ~id:"V2" ~kind:(Circuit.Element.Vsource 3.0) "a" "gnd";
      ]
  in
  match Fmea.Injection_fmea.analyse nl Reliability.Reliability_model.table_ii with
  | exception Fmea.Injection_fmea.Golden_run_failed _ -> ()
  | _ -> Alcotest.fail "expected Golden_run_failed"

let test_no_fault_model_warning () =
  let rm =
    Reliability.Reliability_model.of_entries
      [
        {
          Reliability.Reliability_model.component_type = "resistor";
          fit = Reliability.Fit.of_float 4.0;
          failure_modes =
            [
              {
                Reliability.Reliability_model.fm_name = "mystery";
                distribution_pct = 100.0;
                fault = None;
                loss_of_function = false;
              };
            ];
        };
      ]
  in
  let nl =
    Circuit.Netlist.of_elements "t"
      [
        Circuit.Element.make ~id:"V1" ~kind:(Circuit.Element.Vsource 5.0) "a" "gnd";
        Circuit.Element.make ~id:"R1" ~kind:(Circuit.Element.Resistor 100.0) "a" "gnd";
      ]
  in
  let t = Fmea.Injection_fmea.analyse nl rm in
  Alcotest.(check int) "warning row" 1 (List.length (Fmea.Table.warnings t))

let test_solver_sparse_backend_table () =
  (* The injection pipeline serves every fault by a low-rank re-solve
     against the golden sparse factors; its PSU table — every row,
     impact string and warning — must be the one the former dense MNA
     backend produced by refactorising each faulted netlist, pinned in
     golden/psu_refactor_table.txt. *)
  let nl = Fixtures.Case_study.power_supply_netlist in
  let options = Fixtures.Case_study.injection_options in
  let rm = Reliability.Reliability_model.table_ii in
  let paths = ref [] in
  let table =
    Fmea.Injection_fmea.analyse ~options
      ~on_solved:(fun p -> paths := p :: !paths)
      nl rm
  in
  Alcotest.(check string) "table = golden/psu_refactor_table.txt"
    (In_channel.with_open_bin "golden/psu_refactor_table.txt"
       In_channel.input_all)
    (Fmea.Table.show table ^ "\n");
  Alcotest.(check bool) "rank updates used" true
    (List.exists (function `Rank_update _ -> true | `Reused -> false) !paths)

(* ---------- Pinned injection-FMEA tables ----------

   Byte-for-byte CSV goldens of injection FMEAs whose numbers come
   straight from the DC solver: System B (12 MNA unknowns), a generated
   80-section ladder (92 unknowns), and 8- and 32-rail designs (42 and
   162 unknowns, one diode per rail). *)

let check_csv_golden file table =
  Alcotest.(check string) ("table = golden/" ^ file)
    (In_channel.with_open_bin ("golden/" ^ file) In_channel.input_all)
    (Modelio.Csv.to_string (Fmea.Table.to_csv table))

let test_system_b_golden () =
  check_csv_golden "system_b_fmea.csv"
    (Fixtures.Systems.automated_fmea Fixtures.Systems.system_b)

let test_ladder_golden () =
  let nl = Fixtures.Generator.ladder ~sections:80 in
  Alcotest.(check int) "unknowns" 92 (Circuit.Dc.size (Circuit.Dc.prepare nl));
  let options =
    { Fmea.Injection_fmea.default_options with exclude = [ "VIN" ] }
  in
  check_csv_golden "ladder80_fmea.csv"
    (Fmea.Injection_fmea.analyse ~options nl
       Fixtures.Generator.synthetic_catalogue)

(* The multi-rail design, built from its closed form: a 5 V source DC1
   feeding [rails] parallel rails, each a series diode, inductor, current
   sensor and load of 60 + 10·(r mod 8) ohms with a shunt capacitor to
   ground (5·rails + 2 unknowns).  Every rail has a diode, so each fault
   is solved while the other rails' diodes stay active — a path none of
   the one-diode goldens above reaches.  With [source_ohms], DC1 sits
   behind a series resistance RS that couples the rails: a fault on one
   then moves every other rail's diode. *)
let rails_netlist ?source_ohms rails =
  let open Circuit in
  let rail r =
    let n s = Printf.sprintf "%s%d" s r in
    [
      Element.make ~id:(n "D") ~kind:(Element.Diode Element.default_diode) "vin"
        (n "a");
      Element.make ~id:(n "L") ~kind:(Element.Inductor 1e-3) (n "a") (n "b");
      Element.make ~id:(n "C") ~kind:(Element.Capacitor 1e-5) (n "b") "gnd";
      Element.make ~id:(n "CS") ~kind:Element.Current_sensor (n "b") (n "c");
      Element.make ~id:(n "LD")
        ~kind:(Element.Load (float_of_int (60 + (10 * (r mod 8)))))
        (n "c") "gnd";
    ]
  in
  let supply =
    match source_ohms with
    | None -> [ Element.make ~id:"DC1" ~kind:(Element.Vsource 5.0) "vin" "gnd" ]
    | Some ohms ->
        [
          Element.make ~id:"DC1" ~kind:(Element.Vsource 5.0) "src" "gnd";
          Element.make ~id:"RS" ~kind:(Element.Resistor ohms) "src" "vin";
        ]
  in
  Netlist.of_elements
    (Printf.sprintf "rails%d" rails)
    (supply @ List.concat_map rail (List.init rails (fun i -> i + 1)))

let rails_reliability =
  Reliability.Reliability_model.of_spreadsheet
    (Modelio.Spreadsheet.of_csv ~name:"rails"
       (Modelio.Csv.parse
          "Component,FIT,Failure_Mode,Distribution\n\
           diode,10,Open,30\n\
           ,,Short,70\n\
           capacitor,2,Open,30\n\
           ,,Short,70\n\
           inductor,15,Open,30\n\
           ,,Short,70\n\
           current_sensor,8,Open,60\n\
           ,,Short,40\n\
           load,20,Open,50\n\
           ,,Short,50\n\
           vsource,50,Loss,100\n"))

let test_rails_golden rails () =
  let nl = rails_netlist rails in
  Alcotest.(check int) "unknowns" ((5 * rails) + 2)
    (Circuit.Dc.size (Circuit.Dc.prepare nl));
  check_csv_golden
    (Printf.sprintf "rails%d_fmea.csv" rails)
    (Fmea.Injection_fmea.analyse
       ~options:{ Fmea.Injection_fmea.default_options with exclude = [ "DC1" ] }
       nl rails_reliability)

(* ---------- FMEDA / Metrics / Asil ---------- *)

let test_fmeda_best_coverage_wins () =
  let mech name cov =
    {
      Reliability.Sm_model.sm_name = name;
      component_type = "x";
      failure_mode = "f";
      coverage_pct = cov;
      cost = 1.0;
    }
  in
  let table =
    {
      Fmea.Table.system_name = "s";
      rows =
        [
          Fmea.Table.make_row ~component:"X" ~component_fit:100.0
            ~failure_mode:"f" ~distribution_pct:100.0 ~safety_related:true ();
        ];
    }
  in
  let fmeda =
    Fmea.Fmeda.apply table
      [
        Fmea.Fmeda.deploy ~component:"X" ~failure_mode:"f" (mech "weak" 50.0);
        Fmea.Fmeda.deploy ~component:"X" ~failure_mode:"f" (mech "strong" 90.0);
      ]
  in
  let row = List.hd fmeda.Fmea.Table.rows in
  Alcotest.(check (option string)) "strong wins" (Some "strong")
    row.Fmea.Table.safety_mechanism;
  Alcotest.(check (float 1e-9)) "residual" 10.0 row.Fmea.Table.single_point_fit

let test_fmeda_unmatched_ignored () =
  let mech =
    {
      Reliability.Sm_model.sm_name = "m";
      component_type = "x";
      failure_mode = "f";
      coverage_pct = 99.0;
      cost = 1.0;
    }
  in
  let fmeda =
    Fmea.Fmeda.apply sample_table
      [ Fmea.Fmeda.deploy ~component:"NOPE" ~failure_mode:"f" mech ]
  in
  Alcotest.(check bool) "table unchanged" true
    (Fmea.Table.equal sample_table fmeda)

let test_metrics_no_sr_hardware () =
  let t = { Fmea.Table.system_name = "empty"; rows = [] } in
  Alcotest.(check (float 1e-9)) "vacuous SPFM is 100" 100.0 (Fmea.Metrics.spfm t)

let test_metrics_breakdown () =
  let t = Fixtures.Case_study.fmea_via_injection () in
  let b = Fmea.Metrics.compute t in
  Alcotest.(check (float 1e-6)) "lambda total" 325.0 b.Fmea.Metrics.safety_related_fit;
  Alcotest.(check (float 1e-6)) "lambda spf" 307.5 b.Fmea.Metrics.single_point_fit;
  Alcotest.(check int) "three components" 3 (List.length b.Fmea.Metrics.per_component)

let test_latent_and_pmhf () =
  let fmeda = Fixtures.Case_study.fmeda (Fixtures.Case_study.fmea_via_injection ()) in
  let lb = Fmea.Metrics.latent fmeda in
  (* By hand: D1 short 7 FIT latent, L1 short 10.5 FIT latent, MC1's
     covered RAM share 297 FIT detected -> multipoint 314.5, latent 17.5. *)
  Alcotest.(check (float 1e-6)) "multipoint" 314.5 lb.Fmea.Metrics.multipoint_fit;
  Alcotest.(check (float 1e-6)) "latent" 17.5 lb.Fmea.Metrics.latent_fit;
  Alcotest.(check (float 0.01)) "LFM" 94.44 lb.Fmea.Metrics.lfm_pct;
  Alcotest.(check (float 1e-15)) "PMHF" 1.05e-8 (Fmea.Metrics.pmhf_per_hour fmeda);
  Alcotest.(check bool) "meets all ASIL-B metrics" true
    (Fmea.Asil.meets_all ~target:Requirement.ASIL_B
       ~spfm:(Fmea.Metrics.spfm fmeda) ~lfm:(Fmea.Metrics.lfm fmeda)
       ~pmhf:(Fmea.Metrics.pmhf_per_hour fmeda));
  (* ASIL-D's PMHF ceiling (1e-8) is *not* met at 1.05e-8. *)
  Alcotest.(check bool) "ASIL-D PMHF fails" false
    (Fmea.Asil.meets_all ~target:Requirement.ASIL_D ~spfm:99.9 ~lfm:99.9
       ~pmhf:(Fmea.Metrics.pmhf_per_hour fmeda))

let test_latent_empty_table () =
  let t = { Fmea.Table.system_name = "empty"; rows = [] } in
  Alcotest.(check (float 1e-9)) "vacuous LFM" 100.0 (Fmea.Metrics.lfm t);
  Alcotest.(check (float 1e-15)) "vacuous PMHF" 0.0 (Fmea.Metrics.pmhf_per_hour t)

let test_asil_targets () =
  Alcotest.(check (option (float 1e-9))) "B" (Some 90.0)
    (Fmea.Asil.spfm_target Requirement.ASIL_B);
  Alcotest.(check (option (float 1e-9))) "C" (Some 97.0)
    (Fmea.Asil.spfm_target Requirement.ASIL_C);
  Alcotest.(check (option (float 1e-9))) "D" (Some 99.0)
    (Fmea.Asil.spfm_target Requirement.ASIL_D);
  Alcotest.(check bool) "QM has no target" true
    (Fmea.Asil.spfm_target Requirement.QM = None);
  Alcotest.(check bool) "A met vacuously" true
    (Fmea.Asil.meets ~target:Requirement.ASIL_A ~spfm:0.0);
  Alcotest.(check bool) "achieved D" true
    (Fmea.Asil.achieved ~spfm:99.5 = Requirement.ASIL_D);
  Alcotest.(check bool) "achieved B" true
    (Fmea.Asil.achieved ~spfm:96.77 = Requirement.ASIL_B);
  Alcotest.(check bool) "achieved A" true
    (Fmea.Asil.achieved ~spfm:50.0 = Requirement.ASIL_A)

(* Property: SPFM is monotone in coverage — more diagnostic coverage never
   lowers it. *)
let prop_spfm_monotone_in_coverage =
  QCheck.Test.make ~name:"SPFM monotone in coverage" ~count:100
    QCheck.(pair (float_bound_inclusive 100.0) (float_bound_inclusive 100.0))
    (fun (c1, c2) ->
      let lo = Float.min c1 c2 and hi = Float.max c1 c2 in
      let table cov =
        {
          Fmea.Table.system_name = "s";
          rows =
            [
              Fmea.Table.make_row ~sm_coverage_pct:cov ~safety_mechanism:"m"
                ~component:"X" ~component_fit:100.0 ~failure_mode:"f"
                ~distribution_pct:100.0 ~safety_related:true ();
            ];
        }
      in
      Fmea.Metrics.spfm (table hi) >= Fmea.Metrics.spfm (table lo) -. 1e-9)

let suite =
  [
    Alcotest.test_case "make_row spf" `Quick test_make_row_spf;
    Alcotest.test_case "table accessors" `Quick test_table_accessors;
    Alcotest.test_case "table csv layout" `Quick test_table_csv_layout;
    Alcotest.test_case "merge sensitivity" `Quick test_merge_sensitivity;
    Alcotest.test_case "paths series" `Quick test_paths_series;
    Alcotest.test_case "paths parallel" `Quick test_paths_parallel;
    Alcotest.test_case "algorithm1 series" `Quick test_algorithm1_series;
    Alcotest.test_case "algorithm1 parallel" `Quick test_algorithm1_parallel;
    Alcotest.test_case "algorithm1 warning branch" `Quick test_algorithm1_warning_branch;
    Alcotest.test_case "algorithm1 excluded" `Quick test_algorithm1_excluded;
    Alcotest.test_case "algorithm1 redundancy" `Quick test_algorithm1_redundancy;
    Alcotest.test_case "algorithm1 recursion" `Quick test_algorithm1_recursion;
    Alcotest.test_case "algorithm1 boundary fallback" `Quick
      test_algorithm1_no_boundary_fallback;
    Alcotest.test_case "analyse flat package" `Quick test_analyse_package_flat;
    QCheck_alcotest.to_alcotest prop_algorithm1_consistency;
    Alcotest.test_case "Table IV exact (before SM)" `Quick test_table_iv_exact;
    Alcotest.test_case "Table IV exact (after ECC)" `Quick test_table_iv_after_ecc;
    Alcotest.test_case "both routes agree" `Quick test_routes_agree;
    Alcotest.test_case "capacitor exclusion warning" `Quick
      test_capacitor_exclusion_warning;
    Alcotest.test_case "classify single" `Quick test_classify_single;
    Alcotest.test_case "injection threshold" `Quick test_injection_threshold_sensitivity;
    Alcotest.test_case "golden run failure" `Quick test_golden_run_failure;
    Alcotest.test_case "no fault model warning" `Quick test_no_fault_model_warning;
    Alcotest.test_case "solver sparse backend table" `Quick
      test_solver_sparse_backend_table;
    Alcotest.test_case "System B table golden" `Quick test_system_b_golden;
    Alcotest.test_case "ladder table golden" `Quick test_ladder_golden;
    Alcotest.test_case "8-rail table golden" `Quick (test_rails_golden 8);
    Alcotest.test_case "32-rail table golden" `Quick (test_rails_golden 32);
    Alcotest.test_case "fmeda best coverage wins" `Quick test_fmeda_best_coverage_wins;
    Alcotest.test_case "fmeda unmatched ignored" `Quick test_fmeda_unmatched_ignored;
    Alcotest.test_case "metrics no SR hardware" `Quick test_metrics_no_sr_hardware;
    Alcotest.test_case "metrics breakdown" `Quick test_metrics_breakdown;
    Alcotest.test_case "latent + PMHF" `Quick test_latent_and_pmhf;
    Alcotest.test_case "latent empty table" `Quick test_latent_empty_table;
    Alcotest.test_case "asil targets" `Quick test_asil_targets;
    QCheck_alcotest.to_alcotest prop_spfm_monotone_in_coverage;
  ]

(* ---------- Degradation (time-domain) analysis ---------- *)

let degradation_suite =
  let conv () = Blockdiag.To_netlist.convert Fixtures.Case_study.power_supply_diagram in
  let analyse ?(options_f = fun o -> o) () =
    let conversion = conv () in
    let options =
      options_f (Fmea.Degradation.default_options ~disturbance_source:"DC1")
    in
    Fmea.Degradation.analyse
      ~element_types:conversion.Blockdiag.To_netlist.block_types ~options
      conversion.Blockdiag.To_netlist.netlist
      Fixtures.Case_study.reliability_model
  in
  let test_finds_filter_degradations () =
    let findings = analyse () in
    let has component fm =
      List.exists
        (fun (f : Fmea.Degradation.finding) ->
          f.Fmea.Degradation.component = component
          && f.Fmea.Degradation.failure_mode = fm)
        findings
    in
    (* The physically right answers: losing the output capacitor or
       shorting the inductor defeats the LC filter. *)
    Alcotest.(check bool) "C2 open degrades" true (has "C2" "Open");
    Alcotest.(check bool) "L1 short degrades" true (has "L1" "Short");
    (* DC-visible failures are excluded (they are Injection_fmea's): no
       finding has a collapsed observation. *)
    Alcotest.(check bool) "no D1-open (DC-visible)" true (not (has "D1" "Open"));
    List.iter
      (fun (f : Fmea.Degradation.finding) ->
        Alcotest.(check bool) "ratio above factor" true (f.Fmea.Degradation.ratio > 2.0))
      findings
  in
  let test_factor_monotone () =
    let loose = analyse () in
    let strict =
      analyse ~options_f:(fun o -> { o with Fmea.Degradation.ripple_factor = 50.0 }) ()
    in
    Alcotest.(check bool) "stricter factor finds fewer" true
      (List.length strict <= List.length loose)
  in
  let test_exclusion () =
    let findings =
      analyse ~options_f:(fun o -> { o with Fmea.Degradation.exclude = [ "C2"; "L1" ] }) ()
    in
    Alcotest.(check bool) "excluded components absent" true
      (not
         (List.exists
            (fun (f : Fmea.Degradation.finding) ->
              f.Fmea.Degradation.component = "C2" || f.Fmea.Degradation.component = "L1")
            findings))
  in
  [
    Alcotest.test_case "finds filter degradations" `Quick test_finds_filter_degradations;
    Alcotest.test_case "factor monotone" `Quick test_factor_monotone;
    Alcotest.test_case "exclusion" `Quick test_exclusion;
  ]
