(* Tests for block diagrams: validation, text format, netlist extraction
   and the SSAM transformation (including no-information-loss). *)

open Blockdiag

let psu = Decisive.Case_study.power_supply_diagram

(* ---------- Diagram ---------- *)

let test_block_count () =
  (* 11 blocks + 10 connections = 21 elements in the Fig. 11 diagram. *)
  Alcotest.(check int) "psu count" 21 (Diagram.block_count psu)

let test_find_and_params () =
  let dc1 = Option.get (Diagram.find_block psu "DC1") in
  Alcotest.(check (option (float 1e-9))) "volts" (Some 5.0)
    (Diagram.param_num dc1 "volts");
  Alcotest.(check (option string)) "as string" (Some "5")
    (Diagram.param_str dc1 "volts");
  Alcotest.(check bool) "missing param" true (Diagram.param_num dc1 "amps" = None)

let test_find_block_deep () =
  let sub = Diagram.diagram ~name:"inner" [ Diagram.block ~id:"X" ~block_type:"resistor" () ] in
  let d = Diagram.diagram ~name:"outer" [] ~subsystems:[ sub ] in
  Alcotest.(check bool) "deep find" true (Option.is_some (Diagram.find_block_deep d "X"));
  Alcotest.(check bool) "shallow misses" true (Diagram.find_block d "X" = None)

let test_validate_clean () =
  Alcotest.(check (list string)) "psu validates" [] (Diagram.validate psu)

let test_validate_problems () =
  let d =
    Diagram.diagram ~name:"bad"
      [
        Diagram.block ~id:"A" ~block_type:"resistor" ();
        Diagram.block ~id:"A" ~block_type:"resistor" ();
        Diagram.block ~id:"S" ~block_type:"task"
          ~ports:
            [
              { Diagram.port_name = "out"; port_kind = Diagram.Out_port };
              { Diagram.port_name = "out2"; port_kind = Diagram.Out_port };
            ]
          ();
      ]
      ~connections:
        [
          Diagram.connect ("A", "a") ("GHOST", "a");
          Diagram.connect ("A", "nope") ("A", "b");
          Diagram.connect ("S", "out") ("S", "out2");
        ]
  in
  let problems = Diagram.validate d in
  let has sub = List.exists (fun p ->
    let rec contains i = i + String.length sub <= String.length p
      && (String.sub p i (String.length sub) = sub || contains (i+1)) in
    String.length sub = 0 || contains 0) problems in
  Alcotest.(check bool) "duplicate id" true (has "duplicate block id");
  Alcotest.(check bool) "missing block" true (has "missing block");
  Alcotest.(check bool) "missing port" true (has "no port");
  Alcotest.(check bool) "two outputs" true (has "two outputs")

(* ---------- Text format ---------- *)

let test_text_roundtrip_psu () =
  let printed = Text_format.print psu in
  let reparsed = Text_format.parse printed in
  Alcotest.(check bool) "roundtrip" true (Diagram.equal psu reparsed)

let test_text_parse_errors () =
  List.iter
    (fun src ->
      match Text_format.parse src with
      | exception Text_format.Parse_error _ -> ()
      | _ -> Alcotest.fail (Printf.sprintf "expected error on %S" src))
    [
      "not_a_diagram x {}";
      "diagram d { block A }";
      "diagram d { connect A.a -> ; }";
      "diagram d { block A : t { p = ; } }";
      "diagram d {";
    ]

let test_text_comments_and_subsystems () =
  let d =
    Text_format.parse
      "# top comment\ndiagram d {\n  block A : resistor { ohms = 47; }\n\
       subsystem s {\n    block B : task ports (in i, out o);\n  }\n}\n"
  in
  Alcotest.(check int) "subsystems" 1 (List.length d.Diagram.subsystems);
  Alcotest.(check bool) "nested block" true (Option.is_some (Diagram.find_block_deep d "B"))

let diagram_gen =
  (* Random small electrical diagrams for the round-trip property. *)
  let open QCheck.Gen in
  let block_type = oneofl [ "resistor"; "capacitor"; "diode"; "vsource"; "load" ] in
  let param =
    map (fun f -> ("p", Diagram.P_num (float_of_int f))) (int_range 1 100)
  in
  let block i =
    map2
      (fun bt params ->
        Diagram.block ~id:(Printf.sprintf "B%d" i) ~block_type:bt
          ~parameters:params ())
      block_type
      (oneof [ return []; map (fun p -> [ p ]) param ])
  in
  let* n = int_range 1 6 in
  let* blocks =
    List.fold_left
      (fun acc i -> map2 (fun l b -> b :: l) acc (block i))
      (return []) (List.init n Fun.id)
  in
  let* conn_count = int_range 0 (n - 1) in
  let connections =
    List.init conn_count (fun i ->
        Diagram.connect
          (Printf.sprintf "B%d" i, "a")
          (Printf.sprintf "B%d" (i + 1), "b"))
  in
  return (Diagram.diagram ~name:"gen" ~connections (List.rev blocks))

let prop_text_roundtrip =
  QCheck.Test.make ~name:"text format roundtrip" ~count:100
    (QCheck.make diagram_gen)
    (fun d -> Diagram.equal d (Text_format.parse (Text_format.print d)))

(* ---------- To_netlist ---------- *)

let test_netlist_extraction () =
  let result = To_netlist.convert psu in
  (* 7 electrical elements: DC1 D1 C1 L1 C2 CS1 MC1 (ground + sim blocks skipped). *)
  Alcotest.(check int) "element count" 7
    (Circuit.Netlist.element_count result.To_netlist.netlist);
  Alcotest.(check bool) "MC1 typed" true
    (List.assoc_opt "MC1" result.To_netlist.block_types = Some "microcontroller");
  (* Nets: ground merging means C1.b, C2.b, MC1.b, DC1.b all on gnd. *)
  let mc1 = Option.get (Circuit.Netlist.find result.To_netlist.netlist "MC1") in
  Alcotest.(check string) "MC1 grounded" "gnd" mc1.Circuit.Element.node_b

let test_netlist_skips () =
  let result = To_netlist.convert psu in
  let skipped = List.map (fun s -> s.To_netlist.block_id) result.To_netlist.skipped in
  Alcotest.(check bool) "solver config skipped" true (List.mem "S1" skipped);
  Alcotest.(check bool) "scope skipped" true (List.mem "Scope1" skipped);
  Alcotest.(check bool) "ground not reported" true (not (List.mem "GND1" skipped))

let test_netlist_unsupported () =
  let d =
    Diagram.diagram ~name:"u"
      [ Diagram.block ~id:"T1" ~block_type:"transformer" () ]
  in
  match To_netlist.convert d with
  | exception To_netlist.Unsupported_block { block_id = "T1"; _ } -> ()
  | _ -> Alcotest.fail "expected Unsupported_block"

let test_netlist_subsystem_flattening () =
  let sub =
    Diagram.diagram ~name:"flt"
      [ Diagram.block ~id:"L1" ~block_type:"inductor" () ]
  in
  let d =
    Diagram.diagram ~name:"top"
      [ Diagram.block ~id:"R1" ~block_type:"resistor" () ]
      ~subsystems:[ sub ]
  in
  let result = To_netlist.convert d in
  Alcotest.(check bool) "qualified id" true
    (Option.is_some (Circuit.Netlist.find result.To_netlist.netlist "flt/L1"))

(* ---------- Transform (blockdiag <-> SSAM) ---------- *)

let test_transform_no_information_loss () =
  let package = Transform.to_ssam psu in
  let back = Transform.to_diagram package in
  Alcotest.(check bool) "lossless round-trip" true (Diagram.equal psu back)

let test_transform_nested_no_loss () =
  let sub =
    Diagram.diagram ~name:"inner"
      [ Diagram.block ~id:"X" ~block_type:"resistor" ~parameters:[ ("ohms", Diagram.P_num 5.0) ] () ]
      ~connections:[]
  in
  let d =
    Diagram.diagram ~name:"outer"
      [ Diagram.block ~id:"Y" ~block_type:"diode" ~annotation:"note" () ]
      ~subsystems:[ sub ]
      ~connections:[]
  in
  let back = Transform.to_diagram (Transform.to_ssam d) in
  Alcotest.(check bool) "nested lossless" true (Diagram.equal d back)

let prop_transform_roundtrip =
  QCheck.Test.make ~name:"blockdiag -> SSAM -> blockdiag is lossless" ~count:100
    (QCheck.make diagram_gen)
    (fun d -> Diagram.equal d (Transform.to_diagram (Transform.to_ssam d)))

let test_transform_produces_valid_ssam () =
  let model = Transform.to_ssam_model psu in
  Alcotest.(check int) "no validation errors" 0
    (List.length
       (List.filter
          (fun f -> f.Ssam.Validate.f_severity = Ssam.Validate.Error)
          (Ssam.Validate.findings model)))

let test_transform_types_marked () =
  let package = Transform.to_ssam psu in
  let d1 = Option.get (Ssam.Architecture.find_in_package package "D1") in
  Alcotest.(check (option string)) "block type marker" (Some "diode")
    (Transform.block_type_of_component d1)

let test_aggregate_reliability () =
  let package =
    Transform.aggregate_reliability Reliability.Reliability_model.table_ii
      (Transform.to_ssam psu)
  in
  let d1 = Option.get (Ssam.Architecture.find_in_package package "D1") in
  Alcotest.(check (float 1e-9)) "D1 FIT" 10.0 d1.Ssam.Architecture.fit;
  Alcotest.(check int) "D1 failure modes" 2
    (List.length d1.Ssam.Architecture.failure_modes);
  let mc1 = Option.get (Ssam.Architecture.find_in_package package "MC1") in
  Alcotest.(check (float 1e-9)) "MC1 FIT" 300.0 mc1.Ssam.Architecture.fit;
  (* CS1 has no Table II entry: untouched. *)
  let cs1 = Option.get (Ssam.Architecture.find_in_package package "CS1") in
  Alcotest.(check (float 1e-9)) "CS1 untouched" 0.0 cs1.Ssam.Architecture.fit

let test_driver_installed () =
  Alcotest.(check bool) "blockdiag driver" true
    (Option.is_some (Modelio.Driver.find "blockdiag"))

let suite =
  [
    Alcotest.test_case "block count" `Quick test_block_count;
    Alcotest.test_case "find and params" `Quick test_find_and_params;
    Alcotest.test_case "find deep" `Quick test_find_block_deep;
    Alcotest.test_case "validate clean" `Quick test_validate_clean;
    Alcotest.test_case "validate problems" `Quick test_validate_problems;
    Alcotest.test_case "text roundtrip (psu)" `Quick test_text_roundtrip_psu;
    Alcotest.test_case "text parse errors" `Quick test_text_parse_errors;
    Alcotest.test_case "text comments/subsystems" `Quick test_text_comments_and_subsystems;
    QCheck_alcotest.to_alcotest prop_text_roundtrip;
    Alcotest.test_case "netlist extraction" `Quick test_netlist_extraction;
    Alcotest.test_case "netlist skips" `Quick test_netlist_skips;
    Alcotest.test_case "netlist unsupported" `Quick test_netlist_unsupported;
    Alcotest.test_case "netlist flattening" `Quick test_netlist_subsystem_flattening;
    Alcotest.test_case "transform lossless" `Quick test_transform_no_information_loss;
    Alcotest.test_case "transform nested lossless" `Quick test_transform_nested_no_loss;
    QCheck_alcotest.to_alcotest prop_transform_roundtrip;
    Alcotest.test_case "transform valid ssam" `Quick test_transform_produces_valid_ssam;
    Alcotest.test_case "transform type markers" `Quick test_transform_types_marked;
    Alcotest.test_case "aggregate reliability" `Quick test_aggregate_reliability;
    Alcotest.test_case "driver installed" `Quick test_driver_installed;
  ]
