(* Tests for block diagrams: validation, text format, netlist extraction
   and the SSAM transformation (including no-information-loss). *)

open Blockdiag

let psu = Fixtures.Case_study.power_supply_diagram

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

(* The lint block-diagram rules (BLK001-BLK011) give the PSU no error. *)
let lint_errors d =
  List.filter_map
    (fun (x : Lint.Rule.diagnostic) ->
      if x.Lint.Rule.d_severity = Lint.Rule.Error then Some x.Lint.Rule.rule_id
      else None)
    (Lint.Driver.run ~jobs:1
       { Lint.Input.empty with Lint.Input.diagram = Some ("d.bd", d) })

let test_validate_clean () =
  Alcotest.(check (list string)) "psu validates" [] (lint_errors psu)

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

(* ---------- netlist conversion against the reference converter ---------- *)

let conversion convert d = match convert d with r -> Ok r | exception e -> Error e

let same_conversion a b =
  match (a, b) with
  | Ok (a : To_netlist.result), Ok (b : To_netlist.result) ->
      String.equal
        (Circuit.Netlist.name a.To_netlist.netlist)
        (Circuit.Netlist.name b.To_netlist.netlist)
      && List.equal Circuit.Element.equal
           (Circuit.Netlist.elements a.To_netlist.netlist)
           (Circuit.Netlist.elements b.To_netlist.netlist)
      && a.To_netlist.skipped = b.To_netlist.skipped
      && a.To_netlist.block_types = b.To_netlist.block_types
  | Error x, Error y -> x = y
  | Ok _, Error _ | Error _, Ok _ -> false

let describe = function
  | Ok (r : To_netlist.result) ->
      Format.asprintf "%d elements, %d skipped: %a"
        (Circuit.Netlist.element_count r.To_netlist.netlist)
        (List.length r.To_netlist.skipped)
        Fmt.(list ~sep:sp Circuit.Element.pp)
        (Circuit.Netlist.elements r.To_netlist.netlist)
  | Error e -> Printexc.to_string e

let matches_reference d =
  let got = conversion To_netlist.convert d in
  let want = conversion Oracle.Digraph_to_netlist.convert d in
  if same_conversion got want then true
  else
    QCheck.Test.fail_reportf "convert: %s@.reference: %s" (describe got)
      (describe want)

(* A generator netlist as a diagram: one block per element, each node's
   later terminals wired to the first one met, ground to a ground
   block. *)
let diagram_of_netlist nl =
  let num k v = [ (k, Diagram.P_num v) ] in
  let block (e : Circuit.Element.t) =
    let block_type, parameters =
      match e.Circuit.Element.kind with
      | Circuit.Element.Resistor r -> ("resistor", num "ohms" r)
      | Circuit.Element.Vsource v -> ("vsource", num "volts" v)
      | Circuit.Element.Isource i -> ("isource", num "amps" i)
      | Circuit.Element.Diode _ -> ("diode", [])
      | Circuit.Element.Inductor l -> ("inductor", num "henries" l)
      | Circuit.Element.Capacitor c -> ("capacitor", num "farads" c)
      | Circuit.Element.Current_sensor -> ("current_sensor", [])
      | Circuit.Element.Voltage_sensor -> ("voltage_sensor", [])
      | Circuit.Element.Switch c -> ("switch", [ ("closed", Diagram.P_bool c) ])
      | Circuit.Element.Load r -> ("load", num "ohms" r)
    in
    Diagram.block ~id:e.Circuit.Element.id ~block_type ~parameters ()
  in
  let first = Hashtbl.create 16 in
  Hashtbl.add first Circuit.Netlist.ground ("GND", "a");
  let elements = Circuit.Netlist.elements nl in
  let connections =
    List.concat_map
      (fun (e : Circuit.Element.t) ->
        List.filter_map
          (fun (node, port) ->
            match Hashtbl.find_opt first node with
            | Some ep -> Some (Diagram.connect ep (e.Circuit.Element.id, port))
            | None ->
                Hashtbl.add first node (e.Circuit.Element.id, port);
                None)
          [ (e.Circuit.Element.node_a, "a"); (e.Circuit.Element.node_b, "b") ])
      elements
  in
  Diagram.diagram ~name:(Circuit.Netlist.name nl) ~connections
    (List.map block elements
    @ [
        Diagram.block ~id:"GND" ~block_type:"ground"
          ~ports:[ { Diagram.port_name = "a"; port_kind = Diagram.Conserving } ]
          ();
      ])

(* Every diagram the repository ships. *)
let shipped_diagrams =
  lazy
    (let models = "../examples/models" in
     let files =
       Sys.readdir models |> Array.to_list
       |> List.filter (fun f -> Filename.check_suffix f ".bd")
       |> List.sort compare
       |> List.filter_map (fun f ->
              match Text_format.parse_file (Filename.concat models f) with
              | d -> Some (f, d)
              | exception Text_format.Parse_error _ -> None)
     in
     files
     @ [
         ("case study", psu);
         ("system A", Fixtures.Systems.system_a.Fixtures.Systems.diagram);
         ("system B", Fixtures.Systems.system_b.Fixtures.Systems.diagram);
         ("ladder", diagram_of_netlist (Fixtures.Generator.ladder ~sections:4));
         ("grid", diagram_of_netlist (Fixtures.Generator.grid ~rows:2 ~cols:3));
       ]
     @ Fixtures.Case_study.design_variants ~count:3 ())

let test_convert_shipped () =
  let diagrams = Lazy.force shipped_diagrams in
  Alcotest.(check bool) "examples/models parsed" true
    (List.mem_assoc "psu.bd" diagrams);
  List.iter
    (fun (name, d) ->
      Alcotest.(check bool) (name ^ " converts") true
        (Result.is_ok (conversion To_netlist.convert d));
      Alcotest.(check bool) (name ^ " matches the reference") true
        (matches_reference d))
    diagrams

(* One random edit of the top level: drop a block, rewire an endpoint,
   connect to a block or port that does not exist, add a scope, nest
   blocks into a subsystem, give a block an unknown type or a negative
   value. *)
let mutate (d : Diagram.t) =
  let open QCheck.Gen in
  let blocks = d.Diagram.blocks and connections = d.Diagram.connections in
  let endpoints =
    List.concat_map
      (fun (b : Diagram.block) ->
        List.map
          (fun (p : Diagram.port) -> (b.Diagram.block_id, p.Diagram.port_name))
          b.Diagram.ports)
      blocks
  in
  let with_blocks f =
    if blocks = [] then return d
    else
      map
        (fun i ->
          {
            d with
            Diagram.blocks = List.concat (List.mapi (fun j b -> if i = j then f b else [ b ]) blocks);
          })
        (int_bound (List.length blocks - 1))
  in
  let endpoint = if endpoints = [] then return ("NOPE", "a") else oneofl endpoints in
  frequency
    [
      (2, with_blocks (fun _ -> []));
      ( 2,
        if connections = [] then return d
        else
          let* i = int_bound (List.length connections - 1) in
          let* ep_block, ep_port = endpoint in
          let* from_side = bool in
          let ep = { Diagram.ep_block; ep_port } in
          return
            {
              d with
              Diagram.connections =
                List.mapi
                  (fun j (c : Diagram.connection) ->
                    if i <> j then c
                    else if from_side then { c with Diagram.from_ep = ep }
                    else { c with Diagram.to_ep = ep })
                  connections;
            } );
      ( 1,
        let* from = endpoint in
        let* missing =
          oneofl
            [ ("NOPE", "a"); ("NOPE", "b"); (fst from, "zz") ]
        in
        return
          { d with Diagram.connections = Diagram.connect from missing :: connections } );
      ( 1,
        let* to_ = endpoint in
        let id = Printf.sprintf "SCOPE%d" (List.length blocks) in
        let scope =
          Diagram.block ~id ~block_type:"scope"
            ~ports:[ { Diagram.port_name = "a"; port_kind = Diagram.Conserving } ]
            ()
        in
        return
          {
            d with
            Diagram.blocks = blocks @ [ scope ];
            connections = connections @ [ Diagram.connect (id, "a") to_ ];
          } );
      ( 1,
        let* inside = flatten_l (List.map (fun _ -> bool) blocks) in
        let moved =
          List.filteri (fun i _ -> List.nth inside i) blocks
          |> List.map (fun (b : Diagram.block) -> b.Diagram.block_id)
        in
        let nested id = List.mem id moved in
        let inner, outer =
          List.partition
            (fun (c : Diagram.connection) ->
              nested c.Diagram.from_ep.Diagram.ep_block
              && nested c.Diagram.to_ep.Diagram.ep_block)
            connections
        in
        return
          {
            d with
            Diagram.blocks =
              List.filter
                (fun (b : Diagram.block) -> not (nested b.Diagram.block_id))
                blocks;
            connections = outer;
            subsystems =
              Diagram.diagram ~name:"sub" ~connections:inner
                (List.filter
                   (fun (b : Diagram.block) -> nested b.Diagram.block_id)
                   blocks)
              :: d.Diagram.subsystems;
          } );
      (1, with_blocks (fun b -> [ { b with Diagram.block_type = "widget" } ]));
      ( 1,
        with_blocks (fun b ->
            [
              {
                b with
                Diagram.parameters =
                  [ ("ohms", Diagram.P_num (-3.0)); ("farads", Diagram.P_num 0.0) ];
              };
            ]) );
    ]

let mutated_gen =
  let open QCheck.Gen in
  let* _, base = oneofl (Lazy.force shipped_diagrams) in
  let* n = int_range 1 4 in
  let rec go n d = if n = 0 then return d else mutate d >>= go (n - 1) in
  go n base

let prop_convert_mutations =
  QCheck.Test.make ~name:"convert = reference on mutated diagrams" ~count:300
    (QCheck.make ~print:Diagram.show mutated_gen)
    matches_reference

(* A block id that repeats after flattening (two subsystems named S)
   names one set of ports.  Two such elements are the duplicate-id
   error; a scope and a resistor of one id share their nets. *)
let test_convert_repeated_id () =
  let sub blocks = Diagram.diagram ~name:"S" blocks in
  let resistor = Diagram.block ~id:"R1" ~block_type:"resistor" () in
  let twice = Diagram.diagram ~name:"dup" ~subsystems:[ sub [ resistor ]; sub [ resistor ] ] [] in
  Alcotest.check_raises "two elements S/R1"
    (Invalid_argument "Netlist.add: duplicate element id S/R1") (fun () ->
      ignore (To_netlist.convert twice));
  Alcotest.(check bool) "as the reference" true (matches_reference twice);
  let scope =
    Diagram.block ~id:"R1" ~block_type:"scope" ~ports:Diagram.two_terminal_ports ()
  in
  let shared =
    Diagram.diagram ~name:"shared"
      ~connections:[ Diagram.connect ("S/R1", "b") ("GND", "a") ]
      ~subsystems:[ sub [ scope ]; sub [ resistor ] ]
      [
        Diagram.block ~id:"GND" ~block_type:"ground"
          ~ports:[ { Diagram.port_name = "a"; port_kind = Diagram.Conserving } ]
          ();
      ]
  in
  let r = To_netlist.convert shared in
  Alcotest.(check (list (pair string string))) "one element"
    [ ("S/R1", "resistor") ] r.To_netlist.block_types;
  Alcotest.(check (list string)) "the scope is skipped" [ "S/R1" ]
    (List.map (fun (s : To_netlist.skipped) -> s.To_netlist.block_id) r.To_netlist.skipped);
  Alcotest.(check (list (pair string string))) "on the nets both blocks wire"
    [ ("n1", "gnd") ]
    (List.map
       (fun (e : Circuit.Element.t) -> (e.Circuit.Element.node_a, e.Circuit.Element.node_b))
       (Circuit.Netlist.elements r.To_netlist.netlist));
  Alcotest.(check bool) "as the reference" true (matches_reference shared)

let prop_text_roundtrip =
  QCheck.Test.make ~name:"text format roundtrip" ~count:100
    (QCheck.make diagram_gen)
    (fun d -> Diagram.equal d (Text_format.parse (Text_format.print d)))

(* The writer is lossless: any finite parameter (subnormals, 1e300, a
   13th-digit edit, -0.), any string and nested subsystems read back bit
   for bit — compared on their marshalled bytes, which tell -0. from 0.
   where [Diagram.equal] does not. *)
let lossless_diagram_gen =
  let open QCheck.Gen in
  let ident = string_size ~gen:(char_range 'a' 'z') (int_range 1 6) in
  let finite =
    oneof
      [
        float_bound_inclusive 1e6;
        map (fun f -> if Float.is_finite f then f else 0.5) float;
        oneofl
          [ 48.00000000001; 48.0000000000001; 1e300; -1e300; 5e-324;
            2.2250738585072009e-308; Float.max_float; Float.min_float; -0.0;
            0.1; 1234567.0; 1e-5 ];
      ]
  in
  let value =
    frequency
      [
        (4, map (fun f -> Diagram.P_num f) finite);
        (1, map (fun s -> Diagram.P_str s) string);
        (1, map (fun b -> Diagram.P_bool b) bool);
      ]
  in
  let param = pair (map (fun n -> "p" ^ n) ident) value in
  let block i =
    map3
      (fun bt parameters annotation ->
        Diagram.block ~id:(Printf.sprintf "B%d" i) ~block_type:bt ~parameters
          ?annotation ())
      ident
      (list_size (int_range 0 3) param)
      (opt string)
  in
  let body name =
    let* n = int_range 0 4 in
    let* blocks = flatten_l (List.init n block) in
    return (Diagram.diagram ~name blocks)
  in
  let* top = body "top" in
  let* subsystems = list_size (int_range 0 2) (body "sub") in
  return { top with Diagram.subsystems }

let prop_text_lossless =
  QCheck.Test.make ~name:"text format lossless (arbitrary finite parameters)"
    ~count:300
    (QCheck.make ~print:Text_format.print lossless_diagram_gen)
    (fun d ->
      let d' = Text_format.parse (Text_format.print d) in
      Diagram.equal d d'
      && Marshal.to_string d [ Marshal.No_sharing ]
         = Marshal.to_string d' [ Marshal.No_sharing ])

(* A numeric annotation reads back as the number's exact text, not a
   [%g] rounding of it. *)
let test_text_numeric_annotation () =
  List.iter
    (fun (text, expected) ->
      let d =
        Text_format.parse
          (Printf.sprintf
             "diagram d {\n  block B1 : resistor {\n    annotation = %s;\n  }\n}\n"
             text)
      in
      let b = List.hd d.Diagram.blocks in
      Alcotest.(check (option string))
        ("annotation = " ^ text) (Some expected) b.Diagram.annotation;
      Alcotest.(check bool)
        ("annotation = " ^ text ^ " survives print") true
        (Diagram.equal d (Text_format.parse (Text_format.print d))))
    [
      ("48.00000000001", "48.00000000001");
      ("100000000", "100000000");
      ("0.1", "0.1");
      ("-9.1e-06", "-9.1e-06");
    ]

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
    Alcotest.test_case "text roundtrip (psu)" `Quick test_text_roundtrip_psu;
    Alcotest.test_case "text parse errors" `Quick test_text_parse_errors;
    Alcotest.test_case "text comments/subsystems" `Quick test_text_comments_and_subsystems;
    QCheck_alcotest.to_alcotest prop_text_roundtrip;
    QCheck_alcotest.to_alcotest prop_text_lossless;
    Alcotest.test_case "text format lossless (numeric annotation)" `Quick
      test_text_numeric_annotation;
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
    Alcotest.test_case "convert = reference, shipped diagrams" `Quick
      test_convert_shipped;
    QCheck_alcotest.to_alcotest prop_convert_mutations;
    Alcotest.test_case "convert: repeated block id" `Quick
      test_convert_repeated_id;
  ]
