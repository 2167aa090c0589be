(* Tests for the circuit simulator: elements, netlists, MNA DC analysis,
   Newton convergence, fault injection and the block catalogue. *)

open Circuit

let solve_exn nl =
  match Dc.analyse nl with
  | Ok s -> s
  | Error e -> Alcotest.fail (Format.asprintf "analysis failed: %a" Dc.pp_error e)

let check_float ?(eps = 1e-6) what expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: expected %g, got %g" what expected actual)
    true
    (Float.abs (expected -. actual) <= eps)

(* ---------- Element / Netlist ---------- *)

let test_element_validation () =
  Alcotest.check_raises "same node"
    (Invalid_argument "Element.make x: terminals on the same node") (fun () ->
      ignore (Element.make ~id:"x" ~kind:(Element.Resistor 1.0) "n1" "n1"));
  Alcotest.check_raises "bad resistance"
    (Invalid_argument "Element.make r: non-positive resistance") (fun () ->
      ignore (Element.make ~id:"r" ~kind:(Element.Resistor 0.0) "n1" "n2"))

let test_netlist_basics () =
  let nl =
    Netlist.of_elements "t"
      [
        Element.make ~id:"V" ~kind:(Element.Vsource 5.0) "n1" "0";
        Element.make ~id:"R" ~kind:(Element.Resistor 10.0) "n1" "GND";
      ]
  in
  Alcotest.(check int) "count" 2 (Netlist.element_count nl);
  Alcotest.(check (list string)) "nodes normalised (0 and GND are ground)"
    [ "n1" ] (Netlist.nodes nl);
  Alcotest.(check bool) "find" true (Option.is_some (Netlist.find nl "R"));
  Alcotest.check_raises "duplicate id"
    (Invalid_argument "Netlist.add: duplicate element id R") (fun () ->
      ignore (Netlist.add nl (Element.make ~id:"R" ~kind:(Element.Resistor 1.0) "a" "b")))

let test_netlist_replace_remove () =
  let nl =
    Netlist.of_elements "t"
      [ Element.make ~id:"R" ~kind:(Element.Resistor 10.0) "n1" "gnd" ]
  in
  let nl2 = Netlist.replace nl "R" (Element.Resistor 20.0) in
  (match Netlist.find nl2 "R" with
  | Some { Element.kind = Element.Resistor r; _ } -> check_float "replaced" 20.0 r
  | _ -> Alcotest.fail "missing");
  let nl3 = Netlist.remove nl2 "R" in
  Alcotest.(check int) "removed" 0 (Netlist.element_count nl3);
  Alcotest.check_raises "remove missing" Not_found (fun () ->
      ignore (Netlist.remove nl3 "R"))

let test_netlist_validate () =
  let nl =
    Netlist.of_elements "t"
      [
        Element.make ~id:"V" ~kind:(Element.Vsource 5.0) "n1" "gnd";
        (* n2-n3 florating pair: a capacitor does not conduct at DC *)
        Element.make ~id:"C" ~kind:(Element.Capacitor 1e-6) "n2" "n3";
      ]
  in
  Alcotest.(check int) "floating nodes reported" 2
    (List.length (Netlist.validate nl))

(* ---------- DC analysis on textbook circuits ---------- *)

let test_voltage_divider () =
  let nl =
    Netlist.of_elements "divider"
      [
        Element.make ~id:"V1" ~kind:(Element.Vsource 10.0) "in" "gnd";
        Element.make ~id:"R1" ~kind:(Element.Resistor 1000.0) "in" "mid";
        Element.make ~id:"R2" ~kind:(Element.Resistor 1000.0) "mid" "gnd";
      ]
  in
  let s = solve_exn nl in
  (* gmin (1e-9 S per node) perturbs voltages at the 1e-5 level. *)
  check_float ~eps:1e-4 "midpoint" 5.0 (Dc.node_voltage s "mid");
  check_float ~eps:1e-6 "source current" (-0.005) (Dc.element_current s "V1")

let test_current_source () =
  let nl =
    Netlist.of_elements "isrc"
      [
        Element.make ~id:"I1" ~kind:(Element.Isource 0.001) "gnd" "n1";
        Element.make ~id:"R1" ~kind:(Element.Resistor 1000.0) "n1" "gnd";
      ]
  in
  let s = solve_exn nl in
  check_float "1mA into 1k" 1.0 (Dc.node_voltage s "n1")

let test_inductor_is_dc_short () =
  let nl =
    Netlist.of_elements "lshort"
      [
        Element.make ~id:"V1" ~kind:(Element.Vsource 3.0) "a" "gnd";
        Element.make ~id:"L1" ~kind:(Element.Inductor 1e-3) "a" "b";
        Element.make ~id:"R1" ~kind:(Element.Resistor 100.0) "b" "gnd";
      ]
  in
  let s = solve_exn nl in
  check_float "no drop across L" 3.0 (Dc.node_voltage s "b");
  check_float "current through L" 0.03 (Dc.element_current s "L1")

let test_capacitor_is_dc_open () =
  let nl =
    Netlist.of_elements "copen"
      [
        Element.make ~id:"V1" ~kind:(Element.Vsource 3.0) "a" "gnd";
        Element.make ~id:"R1" ~kind:(Element.Resistor 100.0) "a" "b";
        Element.make ~id:"C1" ~kind:(Element.Capacitor 1e-6) "b" "gnd";
      ]
  in
  let s = solve_exn nl in
  (* No DC current, so no drop across R1. *)
  check_float ~eps:1e-3 "b floats to source" 3.0 (Dc.node_voltage s "b");
  check_float "no current" 0.0 (Dc.element_current s "C1")

let test_diode_forward_drop () =
  let nl =
    Netlist.of_elements "dfwd"
      [
        Element.make ~id:"V1" ~kind:(Element.Vsource 5.0) "a" "gnd";
        Element.make ~id:"D1" ~kind:(Element.Diode Element.default_diode) "a" "b";
        Element.make ~id:"R1" ~kind:(Element.Resistor 1000.0) "b" "gnd";
      ]
  in
  let s = solve_exn nl in
  let drop = Dc.node_voltage s "a" -. Dc.node_voltage s "b" in
  Alcotest.(check bool) (Printf.sprintf "forward drop 0.4-0.8V, got %g" drop)
    true
    (drop > 0.4 && drop < 0.8);
  (* Shockley consistency: i = Is (exp(v/vt) - 1) at the operating point. *)
  let i = Dc.element_current s "D1" in
  let p = Element.default_diode in
  let expected =
    p.Element.saturation_current *. (exp (drop /. p.Element.thermal_voltage) -. 1.0)
  in
  check_float ~eps:1e-6 "shockley" expected i

let test_diode_reverse_blocks () =
  let nl =
    Netlist.of_elements "drev"
      [
        Element.make ~id:"V1" ~kind:(Element.Vsource 5.0) "a" "gnd";
        Element.make ~id:"D1" ~kind:(Element.Diode Element.default_diode) "b" "a";
        Element.make ~id:"R1" ~kind:(Element.Resistor 1000.0) "b" "gnd";
      ]
  in
  let s = solve_exn nl in
  Alcotest.(check bool) "reverse current negligible" true
    (Float.abs (Dc.element_current s "D1") < 1e-6)

let test_wheatstone_bridge () =
  (* Balanced bridge: zero volts across the detector. *)
  let nl =
    Netlist.of_elements "bridge"
      [
        Element.make ~id:"V1" ~kind:(Element.Vsource 10.0) "top" "gnd";
        Element.make ~id:"R1" ~kind:(Element.Resistor 100.0) "top" "l";
        Element.make ~id:"R2" ~kind:(Element.Resistor 200.0) "l" "gnd";
        Element.make ~id:"R3" ~kind:(Element.Resistor 1000.0) "top" "r";
        Element.make ~id:"R4" ~kind:(Element.Resistor 2000.0) "r" "gnd";
        Element.make ~id:"VS" ~kind:Element.Voltage_sensor "l" "r";
      ]
  in
  let s = solve_exn nl in
  check_float ~eps:1e-4 "balanced" 0.0
    (List.assoc "VS" (Dc.voltage_sensor_readings s))

let test_kirchhoff_current_law () =
  (* Currents into the mid node must sum to zero. *)
  let nl =
    Netlist.of_elements "kcl"
      [
        Element.make ~id:"V1" ~kind:(Element.Vsource 12.0) "in" "gnd";
        Element.make ~id:"R1" ~kind:(Element.Resistor 100.0) "in" "mid";
        Element.make ~id:"R2" ~kind:(Element.Resistor 330.0) "mid" "gnd";
        Element.make ~id:"R3" ~kind:(Element.Resistor 470.0) "mid" "gnd";
      ]
  in
  let s = solve_exn nl in
  let i_in = Dc.element_current s "R1" in
  let i_out = Dc.element_current s "R2" +. Dc.element_current s "R3" in
  (* KCL holds up to the gmin leakage path at the node. *)
  check_float ~eps:1e-6 "KCL at mid" i_in i_out

let test_open_switch_blocks () =
  let nl =
    Netlist.of_elements "sw"
      [
        Element.make ~id:"V1" ~kind:(Element.Vsource 5.0) "a" "gnd";
        Element.make ~id:"SW" ~kind:(Element.Switch false) "a" "b";
        Element.make ~id:"R1" ~kind:(Element.Resistor 100.0) "b" "gnd";
      ]
  in
  let s = solve_exn nl in
  Alcotest.(check bool) "load dark" true (Float.abs (Dc.node_voltage s "b") < 1e-3)

let test_current_sensor_reads_branch () =
  let nl =
    Netlist.of_elements "cs"
      [
        Element.make ~id:"V1" ~kind:(Element.Vsource 5.0) "a" "gnd";
        Element.make ~id:"CS" ~kind:Element.Current_sensor "a" "b";
        Element.make ~id:"R1" ~kind:(Element.Resistor 500.0) "b" "gnd";
      ]
  in
  let s = solve_exn nl in
  check_float "10mA" 0.01 (List.assoc "CS" (Dc.current_sensor_readings s));
  Alcotest.(check int) "all readings" 1 (List.length (Dc.all_sensor_readings s))

let test_no_convergence_reported () =
  (* A high-current diode chain converges too; check that errors are
     reported as values, not exceptions, for solver failures. *)
  let nl =
    Netlist.of_elements "hi"
      [
        Element.make ~id:"V1" ~kind:(Element.Vsource 24.0) "a" "gnd";
        Element.make ~id:"SW" ~kind:(Element.Switch true) "a" "b";
        Element.make ~id:"D1" ~kind:(Element.Diode Element.default_diode) "b" "c";
        Element.make ~id:"R1" ~kind:(Element.Resistor 10.0) "c" "gnd";
      ]
  in
  match Dc.analyse nl with
  | Ok s ->
      Alcotest.(check bool) "current plausible" true
        (Dc.element_current s "R1" > 2.0 && Dc.element_current s "R1" < 2.4)
  | Error e -> Alcotest.fail (Format.asprintf "unexpected: %a" Dc.pp_error e)

(* Property: in random resistor ladders the node voltages are monotone
   (each divider step can only lower the voltage towards ground). *)
let prop_ladder_monotone =
  QCheck.Test.make ~name:"resistor ladder voltages decrease monotonically"
    ~count:60
    QCheck.(pair (int_range 1 8) (list_of_size (QCheck.Gen.return 8) (QCheck.int_range 1 1000)))
    (fun (stages, resistances) ->
      let r i = float_of_int (List.nth resistances (i mod List.length resistances) + 1) in
      let elements = ref [ Element.make ~id:"V" ~kind:(Element.Vsource 10.0) "n0" "gnd" ] in
      for i = 0 to stages - 1 do
        elements :=
          Element.make ~id:(Printf.sprintf "Rs%d" i) ~kind:(Element.Resistor (r (2 * i)))
            (Printf.sprintf "n%d" i) (Printf.sprintf "n%d" (i + 1))
          :: Element.make ~id:(Printf.sprintf "Rg%d" i)
               ~kind:(Element.Resistor (r ((2 * i) + 1)))
               (Printf.sprintf "n%d" (i + 1)) "gnd"
          :: !elements
      done;
      match Dc.analyse (Netlist.of_elements "ladder" !elements) with
      | Error _ -> false
      | Ok s ->
          let rec monotone i =
            i > stages
            || (Dc.node_voltage s (Printf.sprintf "n%d" (i - 1))
                >= Dc.node_voltage s (Printf.sprintf "n%d" i) -. 1e-9
               && monotone (i + 1))
          in
          monotone 1)

(* ---------- Fault injection ---------- *)

let psu_netlist () =
  Netlist.of_elements "psu"
    [
      Element.make ~id:"V1" ~kind:(Element.Vsource 5.0) "a" "gnd";
      Element.make ~id:"R1" ~kind:(Element.Resistor 50.0) "a" "b";
      Element.make ~id:"R2" ~kind:(Element.Resistor 50.0) "b" "gnd";
    ]

let test_fault_open () =
  let nl = Fault.inject (psu_netlist ()) ~element_id:"R1" Fault.Open_circuit in
  let s = solve_exn nl in
  Alcotest.(check bool) "b dark" true (Float.abs (Dc.node_voltage s "b") < 1e-3)

let test_fault_short () =
  let nl = Fault.inject (psu_netlist ()) ~element_id:"R1" Fault.Short_circuit in
  let s = solve_exn nl in
  Alcotest.(check bool) "b pulled up" true (Dc.node_voltage s "b" > 4.9)

let test_fault_stuck_and_shift () =
  let nl = Fault.inject (psu_netlist ()) ~element_id:"V1" (Fault.Stuck_value 2.5) in
  let s = solve_exn nl in
  check_float "stuck source" 1.25 (Dc.node_voltage s "b");
  let nl = Fault.inject (psu_netlist ()) ~element_id:"R2" (Fault.Parameter_shift 3.0) in
  (match Netlist.find nl "R2" with
  | Some { Element.kind = Element.Resistor r; _ } -> check_float "shifted" 150.0 r
  | _ -> Alcotest.fail "missing R2")

let test_fault_not_applicable () =
  (match Fault.inject (psu_netlist ()) ~element_id:"R1" (Fault.Stuck_value 1.0) with
  | exception Fault.Not_applicable _ -> ()
  | _ -> Alcotest.fail "expected Not_applicable");
  match Fault.inject (psu_netlist ()) ~element_id:"zzz" Fault.Open_circuit with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "expected Not_found"

let test_fault_name_mapping () =
  Alcotest.(check bool) "open" true
    (Fault.of_failure_mode_name "Open" = Some Fault.Open_circuit);
  Alcotest.(check bool) "short" true
    (Fault.of_failure_mode_name "short circuit" = Some Fault.Short_circuit);
  Alcotest.(check bool) "ram failure" true
    (Fault.of_failure_mode_name "RAM Failure" = Some Fault.Open_circuit);
  Alcotest.(check bool) "drift" true
    (match Fault.of_failure_mode_name "output drift" with
    | Some (Fault.Parameter_shift _) -> true
    | _ -> false);
  Alcotest.(check bool) "unknown" true (Fault.of_failure_mode_name "jitter" = None)

(* ---------- Golden-factor injection vs full re-analysis ---------- *)

(* One element of every stamp class, so every fault → low-rank-delta rule
   in [Dc.inject] gets exercised: conductance rank-1s, RHS-only source
   faults, branch disable (rank-2), branch short, diode companion
   removal, and the zero-delta "reused" cases. *)
let mixed_netlist () =
  Netlist.of_elements "mixed"
    [
      Element.make ~id:"V1" ~kind:(Element.Vsource 12.0) "vin" "gnd";
      Element.make ~id:"R1" ~kind:(Element.Resistor 10.0) "vin" "mid";
      Element.make ~id:"CS" ~kind:Element.Current_sensor "mid" "rail";
      Element.make ~id:"D1" ~kind:(Element.Diode Element.default_diode) "rail" "out";
      Element.make ~id:"R2" ~kind:(Element.Resistor 100.0) "out" "gnd";
      Element.make ~id:"SW" ~kind:(Element.Switch true) "rail" "aux";
      Element.make ~id:"RL" ~kind:(Element.Load 50.0) "aux" "gnd";
      Element.make ~id:"C1" ~kind:(Element.Capacitor 1e-6) "out" "gnd";
      Element.make ~id:"L1" ~kind:(Element.Inductor 1e-3) "rail" "lout";
      Element.make ~id:"R3" ~kind:(Element.Resistor 200.0) "lout" "gnd";
      Element.make ~id:"VS" ~kind:Element.Voltage_sensor "out" "gnd";
      Element.make ~id:"I1" ~kind:(Element.Isource 0.01) "gnd" "out";
    ]

(* Same topology without the diode: the faulted circuits are linear, so
   the SMW path (with its refinement step) must agree to roundoff. *)
let mixed_linear_netlist () =
  Netlist.of_elements "mixed-linear"
    [
      Element.make ~id:"V1" ~kind:(Element.Vsource 12.0) "vin" "gnd";
      Element.make ~id:"R1" ~kind:(Element.Resistor 10.0) "vin" "mid";
      Element.make ~id:"CS" ~kind:Element.Current_sensor "mid" "rail";
      Element.make ~id:"R2" ~kind:(Element.Resistor 100.0) "rail" "out";
      Element.make ~id:"RO" ~kind:(Element.Resistor 100.0) "out" "gnd";
      Element.make ~id:"SW" ~kind:(Element.Switch true) "rail" "aux";
      Element.make ~id:"RL" ~kind:(Element.Load 50.0) "aux" "gnd";
      Element.make ~id:"C1" ~kind:(Element.Capacitor 1e-6) "out" "gnd";
      Element.make ~id:"L1" ~kind:(Element.Inductor 1e-3) "rail" "lout";
      Element.make ~id:"R3" ~kind:(Element.Resistor 200.0) "lout" "gnd";
      Element.make ~id:"VS" ~kind:Element.Voltage_sensor "out" "gnd";
      Element.make ~id:"I1" ~kind:(Element.Isource 0.01) "gnd" "out";
    ]

let injection_cases nl =
  List.concat_map
    (fun (e : Element.t) ->
      let base = [ Fault.Open_circuit; Fault.Short_circuit ] in
      let extra =
        match e.Element.kind with
        | Element.Vsource _ | Element.Isource _ ->
            [ Fault.Stuck_value 2.0; Fault.Parameter_shift 0.5 ]
        | Element.Resistor _ | Element.Load _ | Element.Inductor _
        | Element.Capacitor _ ->
            [ Fault.Parameter_shift 2.0 ]
        | _ -> []
      in
      List.map (fun f -> (e.Element.id, f)) (base @ extra))
    (Netlist.elements nl)

let observables s ids nodes =
  List.map (fun id -> Dc.element_current s id) ids
  @ List.map (fun n -> Dc.node_voltage s n) nodes
  @ List.map snd (Dc.all_sensor_readings s)

let oracle_observables s ids nodes =
  List.map (fun id -> Oracle.Dense_dc.element_current s id) ids
  @ List.map (fun n -> Oracle.Dense_dc.node_voltage s n) nodes
  @ List.map snd (Oracle.Dense_dc.all_sensor_readings s)

(* From-scratch re-analyses of a netlist, as observables: the sparse
   solver's own, and the dense reference's. *)
let sparse_reanalysis ids nodes nl =
  Result.map (fun s -> observables s ids nodes) (Dc.analyse nl)

let dense_reanalysis ids nodes nl =
  Result.map (fun s -> oracle_observables s ids nodes) (Oracle.Dense_dc.analyse nl)

(* [eps] is relative to the observable's magnitude: Newton tolerance
   bounds voltage agreement, and currents through mΩ shorts amplify it.
   Both sides failing counts as agreement unless [allow_failure] is
   false. *)
let check_agree ?(allow_failure = true) ~eps what fast reference =
  match (fast, reference) with
  | Ok a, Ok b ->
      List.iter2
        (fun a b ->
          check_float
            ~eps:(eps *. (1.0 +. Float.max (Float.abs a) (Float.abs b)))
            what b a)
        a b
  | Error _, Error _ when allow_failure -> ()
  | Error e, Error _ ->
      Alcotest.fail (Format.asprintf "%s: both failed (%a)" what Dc.pp_error e)
  | Ok _, Error e ->
      Alcotest.fail
        (Format.asprintf "%s: re-analysis failed (%a) but inject succeeded"
           what Dc.pp_error e)
  | Error e, Ok _ ->
      Alcotest.fail
        (Format.asprintf "%s: inject failed (%a) but re-analysis succeeded"
           what Dc.pp_error e)

let check_inject_matches_reanalysis ?allow_failure ~eps
    ?(reanalyse = sparse_reanalysis) ?cases nl =
  let g =
    match Dc.factorise (Dc.prepare nl) with
    | Ok g -> g
    | Error e -> Alcotest.fail (Format.asprintf "golden failed: %a" Dc.pp_error e)
  in
  let ids = List.map (fun (e : Element.t) -> e.Element.id) (Netlist.elements nl) in
  let nodes = Netlist.nodes nl in
  List.iter
    (fun (id, fault) ->
      check_agree ?allow_failure ~eps
        (Printf.sprintf "%s/%s" id (Fault.to_string fault))
        (Result.map
           (fun s -> observables s ids nodes)
           (Dc.inject g ~element_id:id fault))
        (reanalyse ids nodes (Fault.inject nl ~element_id:id fault)))
    (Option.value cases ~default:(injection_cases nl))

let test_inject_matches_reanalysis () =
  check_inject_matches_reanalysis ~eps:1e-4 (mixed_netlist ())

let test_inject_matches_linear () =
  check_inject_matches_reanalysis ~eps:1e-8 (mixed_linear_netlist ())

let test_inject_matches_dense_oracle () =
  check_inject_matches_reanalysis ~eps:1e-4 ~reanalyse:dense_reanalysis
    (mixed_netlist ())

(* The sparse solver against the dense reference, golden and faulted, on
   generated ladders and grids of 3 to ~300 unknowns, the mixed diode
   netlist and the Fig. 11 power supply.  Golden solves agree to 1e-9
   relative (both run the same Newton iterates from the same start);
   faulted ones to 1e-9 on linear circuits and to Newton tolerance
   (1e-4) with diodes, where inject warm-starts from the golden point. *)
let prop_sparse_matches_dense =
  let subject =
    QCheck.Gen.(
      frequency
        [
          (4, map (fun n -> Generator.ladder ~sections:n) (int_range 1 280));
          ( 4,
            map2
              (fun rows cols -> Generator.grid ~rows ~cols)
              (int_range 1 17) (int_range 1 17) );
          (1, return (mixed_netlist ()));
          (1, return Decisive.Case_study.power_supply_netlist);
        ])
  in
  QCheck.Test.make ~name:"sparse backend matches dense" ~count:40
    (QCheck.make
       ~print:(fun (nl, picks) ->
         Printf.sprintf "%s (%d unknowns), cases %s" (Netlist.name nl)
           (Dc.size (Dc.prepare nl))
           (String.concat "," (List.map string_of_int picks)))
       QCheck.Gen.(pair subject (list_size (int_range 1 4) nat)))
    (fun (nl, picks) ->
      let has_diode =
        List.exists
          (fun (e : Element.t) ->
            match e.Element.kind with Element.Diode _ -> true | _ -> false)
          (Netlist.elements nl)
      in
      let eps = if has_diode then 1e-4 else 1e-9 in
      let ids = List.map (fun (e : Element.t) -> e.Element.id) (Netlist.elements nl) in
      let nodes = Netlist.nodes nl in
      check_agree ~allow_failure:false ~eps:1e-9 (Netlist.name nl)
        (sparse_reanalysis ids nodes nl)
        (dense_reanalysis ids nodes nl);
      (* Every fault on the small hand-built circuits; a drawn handful on
         the generated ones. *)
      let all = injection_cases nl in
      let cases =
        if List.length all <= 64 then all
        else List.map (fun i -> List.nth all (i mod List.length all)) picks
      in
      check_inject_matches_reanalysis ~eps ~reanalyse:dense_reanalysis ~cases nl;
      true)

let test_inject_floating_node_singular () =
  (* With gmin = 0 an open on R1 leaves n2 with no conductive connection
     at all (the voltage sensor does not conduct): the full re-analysis,
     the SMW path and the dense reference must all report a singular
     system, naming n2's unknown. *)
  let nl =
    Netlist.of_elements "floating"
      [
        Element.make ~id:"V1" ~kind:(Element.Vsource 5.0) "vin" "gnd";
        Element.make ~id:"R1" ~kind:(Element.Resistor 10.0) "vin" "n2";
        Element.make ~id:"VS" ~kind:Element.Voltage_sensor "n2" "gnd";
      ]
  in
  let n2 =
    match List.find_index (String.equal "n2") (Netlist.nodes nl) with
    | Some i -> i
    | None -> Alcotest.fail "n2 is not a node"
  in
  let expected = Printf.sprintf "pivot failure at unknown %d" n2 in
  let check what = function
    | Error (Dc.Singular_system msg) -> Alcotest.(check string) what expected msg
    | Error e -> Alcotest.fail (Format.asprintf "%s: %a" what Dc.pp_error e)
    | Ok _ -> Alcotest.fail (what ^ ": expected Singular_system")
  in
  let faulted = Fault.inject nl ~element_id:"R1" Fault.Open_circuit in
  check "re-analysis" (Dc.analyse ~gmin:0.0 faulted);
  check "dense reference"
    (Result.map ignore (Oracle.Dense_dc.analyse ~gmin:0.0 faulted));
  match Dc.factorise (Dc.prepare ~gmin:0.0 nl) with
  | Error e -> Alcotest.fail (Format.asprintf "golden failed: %a" Dc.pp_error e)
  | Ok g -> check "inject" (Dc.inject g ~element_id:"R1" Fault.Open_circuit)

let test_inject_paths_reported () =
  (* Exact ranks hold on the linear netlist; with diodes present Newton
     may add per-diode rank-1 corrections on top of the fault delta. *)
  let nl = mixed_linear_netlist () in
  let g =
    match Dc.factorise (Dc.prepare nl) with
    | Ok g -> g
    | Error e -> Alcotest.fail (Format.asprintf "golden: %a" Dc.pp_error e)
  in
  let path_of id fault =
    let seen = ref None in
    ignore (Dc.inject ~on_path:(fun p -> seen := Some p) g ~element_id:id fault);
    !seen
  in
  Alcotest.(check bool) "capacitor open reused" true
    (path_of "C1" Fault.Open_circuit = Some `Reused);
  Alcotest.(check bool) "closed switch short reused" true
    (path_of "SW" Fault.Short_circuit = Some `Reused);
  Alcotest.(check bool) "vsource stuck is rhs-only" true
    (path_of "V1" (Fault.Stuck_value 2.0) = Some (`Rank_update 0));
  Alcotest.(check bool) "sensor open is rank-2" true
    (path_of "CS" Fault.Open_circuit = Some (`Rank_update 2));
  Alcotest.(check bool) "resistor short is rank >= 1" true
    (match path_of "R2" Fault.Short_circuit with
    | Some (`Rank_update k) -> k >= 1
    | _ -> false)

(* ---------- Library ---------- *)

let test_library_lookup () =
  Alcotest.(check bool) "resistor" true (Option.is_some (Library.find "resistor"));
  Alcotest.(check bool) "alias MC" true
    (match Library.find "MC" with
    | Some { Library.block_type = "microcontroller"; _ } -> true
    | _ -> false);
  Alcotest.(check bool) "unknown" true (Library.find "warp-drive" = None)

let test_library_coverage () =
  let r = Library.coverage [ "resistor"; "diode"; "mcu"; "opamp"; "resistor" ] in
  Alcotest.(check int) "native" 2 (List.length r.Library.native);
  Alcotest.(check int) "workaround" 1 (List.length r.Library.via_workaround);
  Alcotest.(check int) "unsupported" 1 (List.length r.Library.unsupported);
  Alcotest.(check (float 0.01)) "pct" 75.0 r.Library.coverage_pct;
  let empty = Library.coverage [] in
  Alcotest.(check (float 0.01)) "empty is 100%" 100.0 empty.Library.coverage_pct

let test_library_distributions_sum () =
  List.iter
    (fun (b : Library.block_info) ->
      if b.Library.failure_modes <> [] then begin
        let sum =
          List.fold_left
            (fun acc fm -> acc +. fm.Library.cfm_distribution_pct)
            0.0 b.Library.failure_modes
        in
        Alcotest.(check bool)
          (Printf.sprintf "%s distributions sum to 100" b.Library.block_type)
          true
          (Float.abs (sum -. 100.0) < 0.5)
      end)
    Library.catalogue

let suite =
  [
    Alcotest.test_case "element validation" `Quick test_element_validation;
    Alcotest.test_case "netlist basics" `Quick test_netlist_basics;
    Alcotest.test_case "netlist replace/remove" `Quick test_netlist_replace_remove;
    Alcotest.test_case "netlist validate" `Quick test_netlist_validate;
    Alcotest.test_case "voltage divider" `Quick test_voltage_divider;
    Alcotest.test_case "current source" `Quick test_current_source;
    Alcotest.test_case "inductor DC short" `Quick test_inductor_is_dc_short;
    Alcotest.test_case "capacitor DC open" `Quick test_capacitor_is_dc_open;
    Alcotest.test_case "diode forward drop" `Quick test_diode_forward_drop;
    Alcotest.test_case "diode reverse blocks" `Quick test_diode_reverse_blocks;
    Alcotest.test_case "wheatstone bridge" `Quick test_wheatstone_bridge;
    Alcotest.test_case "KCL" `Quick test_kirchhoff_current_law;
    Alcotest.test_case "open switch blocks" `Quick test_open_switch_blocks;
    Alcotest.test_case "current sensor" `Quick test_current_sensor_reads_branch;
    Alcotest.test_case "high-current diode converges" `Quick test_no_convergence_reported;
    QCheck_alcotest.to_alcotest prop_ladder_monotone;
    Alcotest.test_case "fault open" `Quick test_fault_open;
    Alcotest.test_case "fault short" `Quick test_fault_short;
    Alcotest.test_case "fault stuck/shift" `Quick test_fault_stuck_and_shift;
    Alcotest.test_case "fault not applicable" `Quick test_fault_not_applicable;
    Alcotest.test_case "fault name mapping" `Quick test_fault_name_mapping;
    Alcotest.test_case "inject matches re-analysis" `Quick
      test_inject_matches_reanalysis;
    Alcotest.test_case "inject matches re-analysis (linear)" `Quick
      test_inject_matches_linear;
    Alcotest.test_case "inject matches re-analysis (sparse vs dense)" `Quick
      test_inject_matches_dense_oracle;
    QCheck_alcotest.to_alcotest prop_sparse_matches_dense;
    Alcotest.test_case "inject floating node singular" `Quick
      test_inject_floating_node_singular;
    Alcotest.test_case "inject paths reported" `Quick test_inject_paths_reported;
    Alcotest.test_case "library lookup" `Quick test_library_lookup;
    Alcotest.test_case "library coverage" `Quick test_library_coverage;
    Alcotest.test_case "library distributions" `Quick test_library_distributions_sum;
  ]

(* ---------- Transient analysis ---------- *)

let test_transient_rc_charging () =
  (* v(t) = 5 (1 - e^{-t/RC}) with RC = 1 ms. *)
  let nl =
    Netlist.of_elements "rc"
      [
        Element.make ~id:"V" ~kind:(Element.Vsource 5.0) "a" "gnd";
        Element.make ~id:"R" ~kind:(Element.Resistor 1000.0) "a" "b";
        Element.make ~id:"C" ~kind:(Element.Capacitor 1e-6) "b" "gnd";
      ]
  in
  match Transient.simulate ~initial:Transient.Zero_state nl ~dt:1e-5 ~duration:5e-3 with
  | Error e -> Alcotest.fail (Format.asprintf "%a" Dc.pp_error e)
  | Ok r ->
      let vb = Transient.node_voltage r "b" in
      (* One time constant: 63.2% of the rail, within backward-Euler error. *)
      check_float ~eps:0.05 "v(1ms)" (5.0 *. (1.0 -. exp (-1.0))) vb.(100);
      check_float ~eps:0.05 "fully charged" 5.0 (Transient.final_value vb);
      (match Transient.settling_time ~times:(Transient.times r) vb ~tolerance:0.05 with
      | Some ts -> Alcotest.(check bool) "settles ~4-5 tau" true (ts > 3e-3 && ts < 5e-3)
      | None -> Alcotest.fail "never settles")

let test_transient_rl_rise () =
  (* i(t) = (V/R)(1 - e^{-tR/L}), L/R = 1 ms. *)
  let nl =
    Netlist.of_elements "rl"
      [
        Element.make ~id:"V" ~kind:(Element.Vsource 10.0) "a" "gnd";
        Element.make ~id:"R" ~kind:(Element.Resistor 10.0) "a" "b";
        Element.make ~id:"L" ~kind:(Element.Inductor 1e-2) "b" "gnd";
      ]
  in
  match Transient.simulate ~initial:Transient.Zero_state nl ~dt:1e-5 ~duration:6e-3 with
  | Error e -> Alcotest.fail (Format.asprintf "%a" Dc.pp_error e)
  | Ok r ->
      let il = Transient.element_current r "L" in
      check_float ~eps:0.02 "i(1ms)" (1.0 *. (1.0 -. exp (-1.0))) il.(100);
      check_float ~eps:0.02 "i(final)" 1.0 (Transient.final_value il)

let test_transient_steady_state_stays () =
  (* Starting from the DC operating point with constant sources, nothing
     moves. *)
  let nl = Decisive.Case_study.power_supply_netlist in
  match Transient.simulate nl ~dt:1e-5 ~duration:1e-3 with
  | Error e -> Alcotest.fail (Format.asprintf "%a" Dc.pp_error e)
  | Ok r ->
      let cs1 = Transient.sensor_trace r "CS1" in
      Alcotest.(check bool) "no drift from steady state" true
        (Transient.ripple cs1 < 1e-4)

let test_transient_waveform_and_ripple () =
  (* The LC filter suppresses injected supply ripple; removing C2 lets it
     through — the time-domain role of the capacitors the DC FMEA
     excludes. *)
  let build with_c2 =
    Netlist.of_elements "psu"
      ([
         Element.make ~id:"DC1" ~kind:(Element.Vsource 5.0) "n1" "gnd";
         Element.make ~id:"D1" ~kind:(Element.Diode Element.default_diode) "n1" "n2";
         Element.make ~id:"L1" ~kind:(Element.Inductor 1e-3) "n2" "n3";
         Element.make ~id:"CS1" ~kind:Element.Current_sensor "n3" "n4";
         Element.make ~id:"MC1" ~kind:(Element.Load 100.0) "n4" "gnd";
       ]
      @
      if with_c2 then
        [ Element.make ~id:"C2" ~kind:(Element.Capacitor 1e-4) "n3" "gnd" ]
      else [])
  in
  let wave t = 5.0 +. (0.5 *. sin (2.0 *. Float.pi *. 1000.0 *. t)) in
  let ripple_of nl =
    match Transient.simulate ~waveforms:[ ("DC1", wave) ] nl ~dt:2e-6 ~duration:1e-2 with
    | Ok r -> Transient.ripple (Transient.sensor_trace r "CS1")
    | Error e -> Alcotest.fail (Format.asprintf "%a" Dc.pp_error e)
  in
  let filtered = ripple_of (build true) in
  let unfiltered = ripple_of (build false) in
  Alcotest.(check bool)
    (Printf.sprintf "C2 suppresses ripple (%.4g vs %.4g A)" filtered unfiltered)
    true
    (unfiltered > 3.0 *. filtered)

let test_transient_voltage_sensor_trace () =
  let nl =
    Netlist.of_elements "vs"
      [
        Element.make ~id:"V" ~kind:(Element.Vsource 2.0) "a" "gnd";
        Element.make ~id:"R" ~kind:(Element.Resistor 10.0) "a" "gnd";
        Element.make ~id:"VS" ~kind:Element.Voltage_sensor "a" "gnd";
      ]
  in
  match Transient.simulate nl ~dt:1e-4 ~duration:1e-3 with
  | Error e -> Alcotest.fail (Format.asprintf "%a" Dc.pp_error e)
  | Ok r ->
      check_float ~eps:1e-3 "voltage sensor" 2.0
        (Transient.final_value (Transient.sensor_trace r "VS"))

let test_transient_validation () =
  let nl = psu_netlist () in
  (match Transient.simulate nl ~dt:0.0 ~duration:1.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument on dt");
  match Transient.simulate nl ~dt:1e-3 ~duration:(-1.0) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument on duration"

let transient_suite =
  [
    Alcotest.test_case "transient RC charging" `Quick test_transient_rc_charging;
    Alcotest.test_case "transient RL rise" `Quick test_transient_rl_rise;
    Alcotest.test_case "transient steady state" `Quick test_transient_steady_state_stays;
    Alcotest.test_case "transient ripple filtering" `Quick
      test_transient_waveform_and_ripple;
    Alcotest.test_case "transient voltage sensor" `Quick
      test_transient_voltage_sensor_trace;
    Alcotest.test_case "transient validation" `Quick test_transient_validation;
  ]

(* ---------- AC small-signal analysis ---------- *)

let ac_suite =
  let rc () =
    Netlist.of_elements "rc"
      [
        Element.make ~id:"V" ~kind:(Element.Vsource 1.0) "a" "gnd";
        Element.make ~id:"R" ~kind:(Element.Resistor 1000.0) "a" "b";
        Element.make ~id:"C" ~kind:(Element.Capacitor 1e-6) "b" "gnd";
      ]
  in
  let sweep_exn ~source nl freqs =
    match Ac.analyse ~source nl ~frequencies_hz:freqs with
    | Ok s -> s
    | Error e -> Alcotest.fail (Format.asprintf "%a" Dc.pp_error e)
  in
  let test_rc_low_pass () =
    let freqs = Ac.log_space ~from_hz:1.0 ~to_hz:100_000.0 ~points:101 in
    let sweep = sweep_exn ~source:"V" (rc ()) freqs in
    let pts = Ac.node_response sweep "b" in
    (* Passband gain 1, stopband rolls off as 1/(wRC). *)
    let first = List.hd pts in
    check_float ~eps:1e-3 "unity at 1 Hz" 1.0 first.Ac.magnitude;
    let last = List.nth pts 100 in
    check_float ~eps:1e-4 "1/(wRC) at 100 kHz"
      (1.0 /. (2.0 *. Float.pi *. 1e5 *. 1000.0 *. 1e-6))
      last.Ac.magnitude;
    (* Cutoff near the analytic 159.2 Hz (log-grid quantised). *)
    (match Ac.cutoff_hz pts with
    | Some fc ->
        Alcotest.(check bool) (Printf.sprintf "cutoff %.1f ~ 159" fc) true
          (fc > 120.0 && fc < 220.0)
    | None -> Alcotest.fail "no cutoff found");
    (* Phase approaches -90 degrees deep in the stopband. *)
    Alcotest.(check bool) "stopband phase" true (last.Ac.phase_deg < -85.0)
  in
  let test_lc_rolloff () =
    (* Second-order filter: -40 dB/decade well above cutoff. *)
    let nl =
      Netlist.of_elements "lc"
        [
          Element.make ~id:"V" ~kind:(Element.Vsource 1.0) "a" "gnd";
          Element.make ~id:"L" ~kind:(Element.Inductor 1e-3) "a" "b";
          Element.make ~id:"C" ~kind:(Element.Capacitor 1e-5) "b" "gnd";
          Element.make ~id:"RL" ~kind:(Element.Resistor 100.0) "b" "gnd";
        ]
    in
    let sweep = sweep_exn ~source:"V" nl [ 100_000.0; 1_000_000.0 ] in
    match Ac.node_response sweep "b" with
    | [ p1; p2 ] ->
        let slope_db = p2.Ac.magnitude_db -. p1.Ac.magnitude_db in
        Alcotest.(check bool)
          (Printf.sprintf "second-order rolloff (%.1f dB/decade)" slope_db)
          true
          (slope_db < -38.0 && slope_db > -42.0)
    | _ -> Alcotest.fail "unexpected points"
  in
  let test_psu_filter_cutoff () =
    let sweep =
      sweep_exn ~source:"DC1" Decisive.Case_study.power_supply_netlist
        (Ac.log_space ~from_hz:10.0 ~to_hz:100_000.0 ~points:61)
    in
    match Ac.cutoff_hz (Ac.sensor_response sweep "CS1") with
    | Some fc ->
        (* The LC corner sits near 1/(2pi sqrt(LC)) = 1.6 kHz. *)
        Alcotest.(check bool) (Printf.sprintf "cutoff %.0f in band" fc) true
          (fc > 800.0 && fc < 5000.0)
    | None -> Alcotest.fail "no cutoff"
  in
  let test_validation () =
    (match Ac.analyse ~source:"NOPE" (rc ()) ~frequencies_hz:[ 1.0 ] with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "unknown source accepted");
    (match Ac.analyse ~source:"R" (rc ()) ~frequencies_hz:[ 1.0 ] with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "non-source accepted");
    (match Ac.analyse ~source:"V" (rc ()) ~frequencies_hz:[ 0.0 ] with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "zero frequency accepted");
    match Ac.log_space ~from_hz:10.0 ~to_hz:1.0 ~points:5 with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "bad log_space accepted"
  in
  let test_log_space () =
    let freqs = Ac.log_space ~from_hz:1.0 ~to_hz:1000.0 ~points:4 in
    Alcotest.(check int) "points" 4 (List.length freqs);
    check_float ~eps:1e-9 "first" 1.0 (List.hd freqs);
    check_float ~eps:1e-6 "last" 1000.0 (List.nth freqs 3);
    check_float ~eps:1e-6 "log spacing" 10.0 (List.nth freqs 1)
  in
  (* The prepared path (one base matrix, reactive restamps per
     frequency) must agree with analyse, and successive solves on the
     same prepared value must not contaminate each other. *)
  let test_prepared_matches_analyse () =
    let nl = Decisive.Case_study.power_supply_netlist in
    let freqs = Ac.log_space ~from_hz:10.0 ~to_hz:100_000.0 ~points:31 in
    let reference = sweep_exn ~source:"DC1" nl freqs in
    let p =
      match Ac.prepare ~source:"DC1" nl with
      | Ok p -> p
      | Error e -> Alcotest.fail (Format.asprintf "%a" Dc.pp_error e)
    in
    let solve_exn freqs =
      match Ac.solve p ~frequencies_hz:freqs with
      | Ok s -> s
      | Error e -> Alcotest.fail (Format.asprintf "%a" Dc.pp_error e)
    in
    (* A throwaway sweep first: if solve mutated the base, the real
       sweep below would drift. *)
    ignore (solve_exn [ 50.0; 5000.0 ]);
    let sweep = solve_exn freqs in
    let check_trace trace want got =
      List.iter2
        (fun (w : Ac.point) (g : Ac.point) ->
          check_float ~eps:1e-12 (trace ^ " magnitude") w.Ac.magnitude
            g.Ac.magnitude;
          check_float ~eps:1e-9 (trace ^ " phase") w.Ac.phase_deg g.Ac.phase_deg)
        want got
    in
    check_trace "CS1"
      (Ac.sensor_response reference "CS1")
      (Ac.sensor_response sweep "CS1");
    List.iter
      (fun n ->
        check_trace n (Ac.node_response reference n) (Ac.node_response sweep n))
      (Netlist.nodes nl)
  in
  [
    Alcotest.test_case "RC low-pass" `Quick test_rc_low_pass;
    Alcotest.test_case "LC -40dB/decade" `Quick test_lc_rolloff;
    Alcotest.test_case "PSU filter cutoff" `Quick test_psu_filter_cutoff;
    Alcotest.test_case "validation" `Quick test_validation;
    Alcotest.test_case "log_space" `Quick test_log_space;
    Alcotest.test_case "prepared sweep matches analyse" `Quick
      test_prepared_matches_analyse;
  ]

(* Cross-validation: the transient engine and the AC engine must agree —
   driving a sine at frequency f, the steady-state output ripple equals
   (peak-to-peak input) x |H(f)|. *)
let test_transient_ac_agree () =
  let nl = Decisive.Case_study.power_supply_netlist in
  let hz = 1000.0 in
  let amplitude = 0.25 in
  let ac =
    match Ac.analyse ~source:"DC1" nl ~frequencies_hz:[ hz ] with
    | Ok sweep -> (List.hd (Ac.sensor_response sweep "CS1")).Ac.magnitude
    | Error e -> Alcotest.fail (Format.asprintf "%a" Dc.pp_error e)
  in
  let wave t = 5.0 +. (amplitude *. sin (2.0 *. Float.pi *. hz *. t)) in
  let transient_ripple =
    match
      Transient.simulate ~waveforms:[ ("DC1", wave) ] nl ~dt:1e-6 ~duration:8e-3
    with
    | Ok r -> Transient.ripple (Transient.sensor_trace r "CS1")
    | Error e -> Alcotest.fail (Format.asprintf "%a" Dc.pp_error e)
  in
  let predicted = 2.0 *. amplitude *. ac in
  let error = Float.abs (transient_ripple -. predicted) /. predicted in
  Alcotest.(check bool)
    (Printf.sprintf
       "transient ripple %.4g vs AC prediction %.4g (%.1f%% error)"
       transient_ripple predicted (100.0 *. error))
    true (error < 0.1)

let cross_validation_suite =
  [ Alcotest.test_case "transient vs AC" `Quick test_transient_ac_agree ]

(* ---------- synthetic generator netlists ---------- *)

let generator_suite =
  let test_ladder_shape () =
    let nl = Generator.ladder ~sections:32 in
    Alcotest.(check (list string)) "validates" [] (Netlist.validate nl);
    (* 33 ladder nodes + 2 sensor mid-nodes + 3 branch unknowns. *)
    Alcotest.(check int) "unknowns" 38 (Dc.size (Dc.prepare nl));
    let s = solve_exn nl in
    let vout = List.assoc "VOUT" (Dc.all_sensor_readings s) in
    Alcotest.(check bool) (Printf.sprintf "droop (%.3f V)" vout) true
      (vout > 0.0 && vout < 12.0);
    (* Determinism: two generations are structurally identical. *)
    Alcotest.(check bool) "deterministic" true
      (List.equal Element.equal
         (Netlist.elements nl)
         (Netlist.elements (Generator.ladder ~sections:32)))
  in
  let test_grid_shape () =
    let nl = Generator.grid ~rows:6 ~cols:6 in
    Alcotest.(check (list string)) "validates" [] (Netlist.validate nl);
    Alcotest.(check int) "unknowns" 39 (Dc.size (Dc.prepare nl));
    let s = solve_exn nl in
    let vout = List.assoc "VOUT" (Dc.all_sensor_readings s) in
    Alcotest.(check bool) (Printf.sprintf "droop (%.3f V)" vout) true
      (vout > 0.0 && vout < 12.0)
  in
  (* Acceptance-shaped check at unit-test scale: on a 160-section ladder,
     the golden-factor re-solve must match the dense reference's
     from-scratch re-analysis to 1e-9 on every observable. *)
  let test_ladder_inject_accuracy () =
    check_inject_matches_reanalysis ~allow_failure:false ~eps:1e-9
      ~reanalyse:dense_reanalysis ~cases:
        [
          ("RS5", Fault.Open_circuit);
          ("RS5", Fault.Short_circuit);
          ("RL40", Fault.Open_circuit);
          ("RL40", Fault.Short_circuit);
          ("RS80", Fault.Parameter_shift 2.0);
          ("CS16", Fault.Open_circuit);
          ("VIN", Fault.Stuck_value 0.0);
          ("VIN", Fault.Parameter_shift 1.25);
        ]
      (Generator.ladder ~sections:160)
  in
  [
    Alcotest.test_case "ladder shape" `Quick test_ladder_shape;
    Alcotest.test_case "grid shape" `Quick test_grid_shape;
    Alcotest.test_case "ladder inject accuracy 1e-9" `Quick
      test_ladder_inject_accuracy;
  ]
