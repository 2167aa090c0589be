(* Tests for FIT arithmetic and the reliability / safety-mechanism models. *)

open Reliability

(* ---------- Fit ---------- *)

let test_fit_arithmetic () =
  Alcotest.(check (float 1e-12)) "share" 3.0
    (Fit.share (Fit.of_float 10.0) ~distribution_pct:30.0);
  Alcotest.(check (float 1e-12)) "residual" 3.0
    (Fit.residual (Fit.of_float 300.0) ~coverage_pct:99.0);
  Alcotest.(check (float 1e-12)) "sum" 325.0
    (Fit.sum [ 10.0; 15.0; 300.0 ]);
  Alcotest.(check (float 1e-24)) "failures/hour" 1e-8
    (Fit.to_failures_per_hour (Fit.of_float 10.0));
  Alcotest.(check (float 1e-9)) "of failures/hour" 10.0
    (Fit.of_failures_per_hour 1e-8);
  (* Mission probability: 100 FIT over 10k hours is 1e-3 to first order,
     and expm1 keeps the tiny-lambda regime exact where exp would round. *)
  Alcotest.(check (float 1e-12)) "mission probability" 9.995001666e-4
    (Fit.failure_probability (Fit.of_float 100.0) ~mission_hours:10_000.0);
  Alcotest.(check (float 1e-18)) "tiny-rate precision" 1e-9
    (Fit.failure_probability (Fit.of_float 1.0) ~mission_hours:1.0);
  Alcotest.(check (float 0.0)) "zero mission" 0.0
    (Fit.failure_probability (Fit.of_float 100.0) ~mission_hours:0.0);
  Alcotest.check_raises "negative mission"
    (Invalid_argument "Fit.failure_probability: negative mission time")
    (fun () ->
      ignore (Fit.failure_probability 10.0 ~mission_hours:(-1.0)))

let test_fit_validation () =
  Alcotest.check_raises "negative" (Invalid_argument "Fit.of_float: negative FIT")
    (fun () -> ignore (Fit.of_float (-1.0)));
  Alcotest.check_raises "bad pct"
    (Invalid_argument "Fit.share: percentage 120 outside [0,100]") (fun () ->
      ignore (Fit.share 10.0 ~distribution_pct:120.0));
  Alcotest.check_raises "bad coverage"
    (Invalid_argument "Fit.residual: percentage -1 outside [0,100]") (fun () ->
      ignore (Fit.residual 10.0 ~coverage_pct:(-1.0)));
  Alcotest.check_raises "NaN share"
    (Invalid_argument "Fit.share: percentage nan outside [0,100]") (fun () ->
      ignore (Fit.share 10.0 ~distribution_pct:Float.nan));
  Alcotest.check_raises "NaN coverage"
    (Invalid_argument "Fit.residual: percentage nan outside [0,100]") (fun () ->
      ignore (Fit.residual 10.0 ~coverage_pct:Float.nan))

(* ---------- Reliability model ---------- *)

let test_table_ii () =
  let m = Reliability_model.table_ii in
  let diode = Option.get (Reliability_model.find m "Diode") in
  Alcotest.(check (float 1e-9)) "diode fit" 10.0 diode.Reliability_model.fit;
  Alcotest.(check int) "diode fms" 2 (List.length diode.Reliability_model.failure_modes);
  (* "MC" resolves to microcontroller through the catalogue alias. *)
  let mc = Option.get (Reliability_model.find m "MC") in
  Alcotest.(check (float 1e-9)) "mc fit" 300.0 mc.Reliability_model.fit;
  Alcotest.(check bool) "no opamp" true (Reliability_model.find m "opamp" = None)

let test_loss_of_function_inference () =
  let m = Reliability_model.table_ii in
  let diode = Option.get (Reliability_model.find m "diode") in
  let by_name name =
    List.find
      (fun fm -> fm.Reliability_model.fm_name = name)
      diode.Reliability_model.failure_modes
  in
  Alcotest.(check bool) "open is loss" true (by_name "Open").Reliability_model.loss_of_function;
  Alcotest.(check bool) "short is not loss" false
    (by_name "Short").Reliability_model.loss_of_function

let table_ii_csv =
  "Component,FIT,Failure_Mode,Distribution\n\
   Diode,10,Open,30%\n,,Short,70%\n\
   Capacitor,2,Open,30%\n,,Short,70%\n\
   Inductor,15,Open,30%\n,,Short,70%\n\
   MC,300,RAM Failure,100%\n"

let test_spreadsheet_parse () =
  let wb = Modelio.Spreadsheet.of_csv ~name:"rel" (Modelio.Csv.parse table_ii_csv) in
  let m = Reliability_model.of_spreadsheet wb in
  (* Continuation rows (blank Component/FIT) attach to the previous entry. *)
  Alcotest.(check int) "entries" 4 (List.length (Reliability_model.entries m));
  let diode = Option.get (Reliability_model.find m "diode") in
  Alcotest.(check int) "diode modes" 2 (List.length diode.Reliability_model.failure_modes);
  Alcotest.(check bool) "equivalent to table_ii" true
    (List.for_all
       (fun (e : Reliability_model.entry) ->
         match Reliability_model.find Reliability_model.table_ii e.Reliability_model.component_type with
         | Some e2 -> Fit.equal e.Reliability_model.fit e2.Reliability_model.fit
         | None -> false)
       (Reliability_model.entries m))

let test_spreadsheet_errors () =
  let bad_col = Modelio.Spreadsheet.of_csv ~name:"x" [ [ "Nope" ]; [ "y" ] ] in
  (match Reliability_model.of_spreadsheet bad_col with
  | exception Reliability_model.Format_error _ -> ()
  | _ -> Alcotest.fail "expected Format_error on missing columns");
  let orphan =
    Modelio.Spreadsheet.of_csv ~name:"x"
      [
        [ "Component"; "FIT"; "Failure_Mode"; "Distribution" ];
        [ ""; ""; "Open"; "30%" ];
      ]
  in
  (match Reliability_model.of_spreadsheet orphan with
  | exception Reliability_model.Format_error _ -> ()
  | _ -> Alcotest.fail "expected Format_error on orphan continuation");
  (* Numbers that parse but are not finite would carry NaN into every
     metric: both catalogue readers reject them. *)
  let sheet rows = Modelio.Spreadsheet.of_csv ~name:"x" rows in
  List.iter
    (fun (fit, dist, message) ->
      let rows =
        [
          [ "Component"; "FIT"; "Failure_Mode"; "Distribution" ];
          [ "Diode"; fit; "Open"; dist ];
        ]
      in
      Alcotest.check_raises message (Reliability_model.Format_error message)
        (fun () -> ignore (Reliability_model.of_spreadsheet (sheet rows))))
    [
      ("10", "nan%", {|Distribution: not a finite number: "nan%"|});
      ("10", "-inf", {|Distribution: not a finite number: "-inf"|});
      ("nan", "100%", {|FIT: not a finite number: "nan"|});
      ("inf", "100%", {|FIT: not a finite number: "inf"|});
    ];
  List.iter
    (fun (cov, cost, message) ->
      let rows =
        [
          [ "Component"; "Failure_Mode"; "Safety_Mechanism"; "Cov."; "Cost(hrs)" ];
          [ "MC"; "RAM Failure"; "ECC"; cov; cost ];
        ]
      in
      Alcotest.check_raises message (Sm_model.Format_error message) (fun () ->
          ignore (Sm_model.of_spreadsheet (sheet rows))))
    [
      ("nan%", "2", {|coverage: not a finite number: "nan%"|});
      ("99%", "nan", {|cost: not a finite number: "nan"|});
      ("99%", "inf", {|cost: not a finite number: "inf"|});
    ];
  Alcotest.check_raises "json distribution"
    (Reliability_model.Format_error "distribution: expected a finite number")
    (fun () ->
      ignore
        (Reliability_model.of_json
           (Modelio.Json.parse
              {|{"components": [{"type": "d", "fit": 1,
                 "failure_modes": [{"name": "Open", "distribution": 1e999}]}]}|})))

let test_spreadsheet_roundtrip () =
  let m = Reliability_model.table_ii in
  let m2 = Reliability_model.of_spreadsheet (Reliability_model.to_spreadsheet m) in
  Alcotest.(check int) "entry count"
    (List.length (Reliability_model.entries m))
    (List.length (Reliability_model.entries m2));
  List.iter
    (fun (e : Reliability_model.entry) ->
      match Reliability_model.find m2 e.Reliability_model.component_type with
      | None -> Alcotest.fail ("missing " ^ e.Reliability_model.component_type)
      | Some e2 ->
          Alcotest.(check (float 1e-9)) "fit" e.Reliability_model.fit e2.Reliability_model.fit)
    (Reliability_model.entries m)

let test_json_parse () =
  let json =
    Modelio.Json.parse
      {| {"components": [
           {"type": "diode", "fit": 10,
            "failure_modes": [
              {"name": "Open", "distribution": 30},
              {"name": "Short", "distribution": 70}]},
           {"type": "relay", "fit": 5,
            "failure_modes": [
              {"name": "Weld", "distribution": 100, "loss_of_function": false}]}
         ]} |}
  in
  let m = Reliability_model.of_json json in
  Alcotest.(check int) "entries" 2 (List.length (Reliability_model.entries m));
  let relay = Option.get (Reliability_model.find m "relay") in
  let weld = List.hd relay.Reliability_model.failure_modes in
  Alcotest.(check bool) "explicit loss flag respected" false
    weld.Reliability_model.loss_of_function

let test_json_errors () =
  List.iter
    (fun src ->
      match Reliability_model.of_json (Modelio.Json.parse src) with
      | exception Reliability_model.Format_error _ -> ()
      | _ -> Alcotest.fail (Printf.sprintf "expected Format_error on %s" src))
    [
      {| {} |};
      {| {"components": [{"fit": 3}]} |};
      {| {"components": [{"type": "r"}]} |};
    ]

(* ---------- SM model ---------- *)

let test_table_iii () =
  let ms =
    Sm_model.applicable Sm_model.table_iii ~component_type:"MCU"
      ~failure_mode:"ram failure"
  in
  Alcotest.(check int) "ecc found" 1 (List.length ms);
  let ecc = List.hd ms in
  Alcotest.(check string) "name" "ECC" ecc.Sm_model.sm_name;
  Alcotest.(check (float 1e-9)) "coverage" 99.0 ecc.Sm_model.coverage_pct;
  Alcotest.(check (float 1e-9)) "cost" 2.0 ecc.Sm_model.cost

let test_applicable_sorting () =
  let ms =
    Sm_model.applicable Sm_model.extended_catalogue ~component_type:"microcontroller"
      ~failure_mode:"RAM Failure"
  in
  Alcotest.(check bool) "at least ECC, watchdog, lockstep" true (List.length ms >= 3);
  let coverages = List.map (fun m -> m.Sm_model.coverage_pct) ms in
  Alcotest.(check bool) "descending coverage" true
    (List.sort (fun a b -> Float.compare b a) coverages = coverages)

let test_sm_spreadsheet_roundtrip () =
  let m = Sm_model.extended_catalogue in
  let m2 = Sm_model.of_spreadsheet (Sm_model.to_spreadsheet m) in
  Alcotest.(check int) "mechanism count"
    (List.length (Sm_model.mechanisms m))
    (List.length (Sm_model.mechanisms m2))

(* Both spreadsheet writers are lossless: any finite FIT, distribution,
   coverage and cost (subnormals, 1e300, a 13th-digit edit, -0.) reads
   back bit for bit — compared on marshalled bytes, which tell -0. from
   0. where the derived equality does not. *)
let lossless_models_gen =
  let open QCheck.Gen in
  let finite =
    oneof
      [
        float_bound_inclusive 1e6;
        map (fun f -> if Float.is_finite f then f else 0.5) float;
        oneofl
          [ 48.00000000001; 48.0000000000001; 1e300; -1e300; 5e-324;
            2.2250738585072009e-308; Float.max_float; -0.0; 0.1; 1e-5; 99.9 ];
      ]
  in
  let name = string_size ~gen:(char_range 'a' 'z') (int_range 1 8) in
  (* A failure mode as [of_spreadsheet] reads one: the fault from its
     name, loss of function for an open. *)
  let mode =
    map2
      (fun fm_name distribution_pct ->
        let fault = Circuit.Fault.of_failure_mode_name fm_name in
        {
          Reliability_model.fm_name;
          distribution_pct;
          fault;
          loss_of_function = fault = Some Circuit.Fault.Open_circuit;
        })
      (oneof [ name; oneofl [ "Open"; "Short"; "Drift"; "RAM Failure" ] ])
      finite
  in
  let entry i =
    map3
      (fun suffix fit failure_modes ->
        {
          Reliability_model.component_type = Printf.sprintf "type%d_%s" i suffix;
          fit = Fit.of_float (Float.abs fit);
          failure_modes;
        })
      name finite
      (list_size (int_range 1 3) mode)
  in
  let mechanism =
    map3
      (fun (sm_name, component_type) (failure_mode, coverage_pct) cost ->
        { Sm_model.sm_name; component_type; failure_mode; coverage_pct; cost })
      (pair name name) (pair name finite) finite
  in
  let* n = int_range 0 5 in
  let* entries = flatten_l (List.init n entry) in
  let* mechanisms = list_size (int_range 0 5) mechanism in
  return (Reliability_model.of_entries entries, Sm_model.of_mechanisms mechanisms)

let prop_spreadsheets_lossless =
  QCheck.Test.make ~name:"spreadsheet writers lossless (arbitrary finite numbers)"
    ~count:300
    (QCheck.make
       ~print:(fun (rel, sm) ->
         String.concat "\n"
           (List.map Reliability_model.show_entry (Reliability_model.entries rel)
           @ List.map Sm_model.show_mechanism (Sm_model.mechanisms sm)))
       lossless_models_gen)
    (fun (rel, sm) ->
      let bytes x = Marshal.to_string x [ Marshal.No_sharing ] in
      let entries = Reliability_model.entries rel
      and entries' =
        Reliability_model.entries
          (Reliability_model.of_spreadsheet (Reliability_model.to_spreadsheet rel))
      in
      let mechanisms = Sm_model.mechanisms sm
      and mechanisms' =
        Sm_model.mechanisms (Sm_model.of_spreadsheet (Sm_model.to_spreadsheet sm))
      in
      List.equal Reliability_model.equal_entry entries entries'
      && bytes entries = bytes entries'
      && List.equal Sm_model.equal_mechanism mechanisms mechanisms'
      && bytes mechanisms = bytes mechanisms')

let suite =
  [
    Alcotest.test_case "fit arithmetic" `Quick test_fit_arithmetic;
    Alcotest.test_case "fit validation" `Quick test_fit_validation;
    Alcotest.test_case "table II" `Quick test_table_ii;
    Alcotest.test_case "loss inference" `Quick test_loss_of_function_inference;
    Alcotest.test_case "spreadsheet parse" `Quick test_spreadsheet_parse;
    Alcotest.test_case "spreadsheet errors" `Quick test_spreadsheet_errors;
    Alcotest.test_case "spreadsheet roundtrip" `Quick test_spreadsheet_roundtrip;
    Alcotest.test_case "json parse" `Quick test_json_parse;
    Alcotest.test_case "json errors" `Quick test_json_errors;
    Alcotest.test_case "table III" `Quick test_table_iii;
    Alcotest.test_case "applicable sorting" `Quick test_applicable_sorting;
    Alcotest.test_case "sm spreadsheet roundtrip" `Quick test_sm_spreadsheet_roundtrip;
    QCheck_alcotest.to_alcotest prop_spreadsheets_lossless;
  ]
