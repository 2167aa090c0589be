(* End-to-end tests of the `same` command-line tool, driving the built
   binary the way a user would. *)

let binary =
  (* Tests run in _build/default/test/; the CLI sits next door. *)
  let candidates = [ "../bin/same.exe"; "bin/same.exe" ] in
  List.find_opt Sys.file_exists candidates

let psu_bd =
  {|diagram psu {
  block DC1 : vsource { volts = 5; }
  block D1 : diode;
  block C1 : capacitor { farads = 1e-5; }
  block L1 : inductor { henries = 0.001; }
  block C2 : capacitor { farads = 1e-5; }
  block CS1 : current_sensor;
  block MC1 : microcontroller { ohms = 100; }
  block GND1 : ground ports (conserving a);
  connect DC1.a -> D1.a;
  connect D1.b -> C1.a;
  connect D1.b -> L1.a;
  connect L1.b -> C2.a;
  connect L1.b -> CS1.a;
  connect CS1.b -> MC1.a;
  connect MC1.b -> GND1.a;
  connect DC1.b -> GND1.a;
  connect C1.b -> GND1.a;
  connect C2.b -> GND1.a;
}
|}

let with_fixture f =
  match binary with
  | None -> Alcotest.skip ()
  | Some bin ->
      let dir = Filename.temp_file "samecli" "" in
      Sys.remove dir;
      Sys.mkdir dir 0o755;
      let bd = Filename.concat dir "psu.bd" in
      let oc = open_out bd in
      output_string oc psu_bd;
      close_out oc;
      Fun.protect
        ~finally:(fun () ->
          Array.iter
            (fun f -> Sys.remove (Filename.concat dir f))
            (Sys.readdir dir);
          Sys.rmdir dir)
        (fun () -> f ~bin ~dir ~bd)

let run cmd = Sys.command (cmd ^ " >/dev/null 2>&1")

let test_fmea_and_assure () =
  with_fixture (fun ~bin ~dir ~bd ->
      let csv = Filename.concat dir "fmeda.csv" in
      Alcotest.(check int) "fmeda exits 0" 0
        (run
           (Printf.sprintf "%s fmeda %s -e DC1 -t ASIL-B -o %s" bin bd
              (Filename.quote csv)));
      Alcotest.(check bool) "csv written" true (Sys.file_exists csv);
      Alcotest.(check int) "assure holds" 0
        (run (Printf.sprintf "%s assure %s -n PSU -t ASIL-B" bin (Filename.quote csv)));
      (* Without the SM the design misses ASIL-B: assure must fail. *)
      Alcotest.(check int) "fmea (no SM) exported" 0
        (run
           (Printf.sprintf "%s fmea %s -e DC1 -o %s" bin bd (Filename.quote csv)));
      Alcotest.(check int) "assure fails on unrefined design" 1
        (run (Printf.sprintf "%s assure %s -n PSU -t ASIL-B" bin (Filename.quote csv))))

let test_routes_and_tools () =
  with_fixture (fun ~bin ~dir:_ ~bd ->
      List.iter
        (fun route ->
          Alcotest.(check int)
            (Printf.sprintf "fmea --route %s" route)
            0
            (run (Printf.sprintf "%s fmea %s -e DC1 --route %s" bin bd route)))
        [ "injection"; "ssam"; "fta" ];
      Alcotest.(check int) "transform lossless" 0
        (run (Printf.sprintf "%s transform %s" bin bd));
      Alcotest.(check int) "coverage" 0 (run (Printf.sprintf "%s coverage %s" bin bd));
      Alcotest.(check int) "run completes" 0
        (run (Printf.sprintf "%s run %s -e DC1 -t ASIL-B -n PSU" bin bd));
      Alcotest.(check int) "bode" 0
        (run (Printf.sprintf "%s bode %s --source DC1 --points 5" bin bd)))

let test_artifacts_written () =
  with_fixture (fun ~bin ~dir ~bd ->
      let dot = Filename.concat dir "ft.dot" in
      let psa = Filename.concat dir "ft.xml" in
      let md = Filename.concat dir "concept.md" in
      Alcotest.(check int) "fta with exports" 0
        (run
           (Printf.sprintf "%s fta %s --dot %s --open-psa %s" bin bd
              (Filename.quote dot) (Filename.quote psa)));
      Alcotest.(check bool) "dot exists" true (Sys.file_exists dot);
      Alcotest.(check bool) "psa parses as xml" true
        (match Modelio.Xml.parse_file psa with
        | _ -> true
        | exception _ -> false);
      Alcotest.(check int) "report" 0
        (run
           (Printf.sprintf "%s report %s -e DC1 -t ASIL-B -n PSU -o %s" bin bd
              (Filename.quote md)));
      Alcotest.(check bool) "report exists" true (Sys.file_exists md))

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let test_lint () =
  with_fixture (fun ~bin ~dir ~bd ->
      Alcotest.(check int) "clean diagram lints clean" 0
        (run (Printf.sprintf "%s lint %s" bin bd));
      (* Seed a dangling connection: lint must exit non-zero. *)
      let bad = Filename.concat dir "bad.bd" in
      write_file bad
        {|diagram bad {
  block DC1 : vsource;
  block D1 : diode;
  connect DC1.a -> D1.a;
  connect D1.b -> C9.a;
}
|};
      Alcotest.(check int) "dangling endpoint is an error" 1
        (run (Printf.sprintf "%s lint %s" bin (Filename.quote bad)));
      Alcotest.(check int) "rule filter narrows to a warning" 0
        (run
           (Printf.sprintf "%s lint %s --rules BLK008" bin (Filename.quote bad)));
      Alcotest.(check int) "unknown rule id is a usage error" 2
        (run (Printf.sprintf "%s lint %s --rules NOPE99" bin bd));
      Alcotest.(check int) "no input is a usage error" 2
        (run (Printf.sprintf "%s lint" bin));
      (* The SM cross-check from the issue: a row naming a failure mode
         its component type never declares. *)
      let sm = Filename.concat dir "bad_sm.csv" in
      write_file sm
        "Component,Failure_Mode,Safety_Mechanism,Cov.,Cost(hrs)\n\
         diode,Burnout,redundant diode,90%,1\n";
      Alcotest.(check int) "undeclared SM failure mode is an error" 1
        (run (Printf.sprintf "%s lint %s -s %s" bin bd (Filename.quote sm)));
      Alcotest.(check int) "--strict blocks the analysis" 1
        (run
           (Printf.sprintf "%s fmeda %s -e DC1 -t ASIL-B -s %s --strict" bin bd
              (Filename.quote sm)));
      (* JSON output is parseable SARIF. *)
      let out = Filename.concat dir "lint.json" in
      Alcotest.(check int) "json format" 0
        (Sys.command
           (Printf.sprintf "%s lint %s --format json > %s 2>/dev/null" bin bd
              (Filename.quote out)));
      match Modelio.Json.parse_file out with
      | json ->
          Alcotest.(check (option string)) "sarif version" (Some "2.1.0")
            (Option.bind (Modelio.Json.member "version" json) Modelio.Json.to_str)
      | exception _ -> Alcotest.fail "lint --format json is not valid JSON")

let test_lint_queries () =
  with_fixture (fun ~bin ~dir ~bd:_ ->
      let good = Filename.concat dir "good.eol" in
      write_file good "var xs := Sequence(1, 2, 3);\nreturn xs.sum() > 1;\n";
      Alcotest.(check int) "well-typed query accepted" 0
        (run (Printf.sprintf "%s lint -q %s" bin (Filename.quote good)));
      let bad = Filename.concat dir "bad.eol" in
      write_file bad "var xs := Sequence(1);\nreturn xs.select();\n";
      Alcotest.(check int) "arity error rejected" 1
        (run (Printf.sprintf "%s lint -q %s" bin (Filename.quote bad))))

(* A source feeding [n] rails of diode, inductor, capacitor, current
   sensor and load: the source alone, or one of the four series losses
   on every rail — 4^n + 1 minimal cut sets. *)
let rails_bd n =
  let b = Buffer.create 2048 in
  let pf fmt = Printf.bprintf b fmt in
  pf "diagram rails%d {\n  block DC1 : vsource { volts = 5; }\n" n;
  pf "  block GND1 : ground ports (conserving a);\n";
  for i = 1 to n do
    pf "  block D%d : diode;\n  block L%d : inductor { henries = 0.001; }\n" i i;
    pf "  block C%d : capacitor { farads = 1e-05; }\n" i;
    pf "  block CS%d : current_sensor;\n" i;
    pf "  block LD%d : load { ohms = %d; }\n" i (60 + (10 * i))
  done;
  pf "  connect DC1.b -> GND1.a;\n";
  for i = 1 to n do
    pf "  connect DC1.a -> D%d.a;\n  connect D%d.b -> L%d.a;\n" i i i;
    pf "  connect L%d.b -> C%d.a;\n  connect L%d.b -> CS%d.a;\n" i i i i;
    pf "  connect CS%d.b -> LD%d.a;\n  connect LD%d.b -> GND1.a;\n" i i i;
    pf "  connect C%d.b -> GND1.a;\n" i
  done;
  pf "}\n";
  Buffer.contents b

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* `auto` (the default) and `bdd` are synonyms: the same report, byte
   for byte. *)
let test_fta_engines_agree () =
  with_fixture (fun ~bin ~dir ~bd:_ ->
      let rails = Filename.concat dir "rails4.bd" in
      write_file rails (rails_bd 4);
      List.iter
        (fun design ->
          let capture args tag =
            let out = Filename.concat dir (tag ^ ".txt") in
            Alcotest.(check int) (tag ^ " exits 0") 0
              (Sys.command
                 (Printf.sprintf "%s fta %s%s > %s 2>/dev/null" bin
                    (Filename.quote design) args (Filename.quote out)));
            read_file out
          in
          let default = capture "" "default" in
          Alcotest.(check bool)
            (design ^ ": report not empty") true
            (String.length default > 0);
          if design = rails then
            Alcotest.(check bool) "4^4 + 1 cut sets" true
              (List.mem "minimal cut sets (257):"
                 (String.split_on_char '\n' default));
          Alcotest.(check string)
            (design ^ ": default = --engine bdd")
            default
            (capture " --engine bdd" "bdd"))
        [ "../examples/models/psu.bd"; rails ];
      Alcotest.(check bool) "--engine mocus is rejected" true
        (run (Printf.sprintf "%s fta %s --engine mocus" bin rails) <> 0))

(* The Fig. 11 PSU, pinned byte for byte: the injection FMEA table, and
   step 4b's FMEDA with its verdict and deployment and the ten-point
   Pareto front. *)
let test_search_golden () =
  with_fixture (fun ~bin ~dir ~bd:_ ->
      List.iter
        (fun (command, args) ->
          let out = Filename.concat dir (command ^ ".txt") in
          Alcotest.(check int) (command ^ " exits 0") 0
            (Sys.command
               (Printf.sprintf "%s %s ../examples/models/psu.bd %s > %s" bin
                  command args (Filename.quote out)));
          let golden = Printf.sprintf "golden/psu_%s.txt" command in
          Alcotest.(check string)
            (command ^ " output = " ^ golden)
            (read_file golden) (read_file out))
        [
          ("fmea", "-e DC1");
          ("fmeda", "-e DC1 -t ASIL-B");
          ("optimize", "-e DC1 -t ASIL-B");
        ])

let test_error_handling () =
  with_fixture (fun ~bin ~dir ~bd ->
      (* Malformed diagram: non-zero exit, no crash. *)
      let bad = Filename.concat dir "bad.bd" in
      let oc = open_out bad in
      output_string oc "diagram oops {";
      close_out oc;
      Alcotest.(check bool) "parse error reported" true
        (run (Printf.sprintf "%s fmea %s" bin (Filename.quote bad)) <> 0);
      (* Assessment budgets that would silently run something else (a
         default 8,064 trials, the 200M cap, one budget ignored) are
         errors. *)
      let err = Filename.concat dir "assess.err" in
      List.iter
        (fun (args, message) ->
          let code =
            Sys.command
              (Printf.sprintf "%s assess %s %s >/dev/null 2>%s" bin bd args
                 (Filename.quote err))
          in
          Alcotest.(check int) (args ^ ": exit 1") 1 code;
          Alcotest.(check string) (args ^ ": message")
            ("error: assess: " ^ message ^ "\n")
            (In_channel.with_open_bin err In_channel.input_all))
        [
          ("--trials 0", "trials must be positive (got 0)");
          ("--rel-precision 0", "relative precision must be positive (got 0)");
          ( "--rel-precision=-0.5",
            "relative precision must be positive (got -0.5)" );
          ( "--trials 100000 --rel-precision 0.01",
            "a fixed trial budget (100000) and a relative precision (0.01) \
             are mutually exclusive" );
        ];
      (* A scale parameter below 1 is a usage error (cmdliner's exit
         124), not an uncaught generator exception. *)
      List.iter
        (fun args ->
          let code =
            Sys.command
              (Printf.sprintf "%s scale %s >/dev/null 2>%s" bin args
                 (Filename.quote err))
          in
          Alcotest.(check int) (args ^ ": usage error") 124 code;
          Alcotest.(check bool) (args ^ ": message names the bound") true
            (String.starts_with
               ~prefix:"same: option '-n': N must be at least 1 (got 0)\n"
               (In_channel.with_open_bin err In_channel.input_all)))
        [ "-n 0"; "--topology grid -n 0"; "--analysis path-fmea -n 0" ])

let suite =
  [
    Alcotest.test_case "fmeda + assure" `Slow test_fmea_and_assure;
    Alcotest.test_case "routes and tools" `Slow test_routes_and_tools;
    Alcotest.test_case "artifacts written" `Slow test_artifacts_written;
    Alcotest.test_case "lint" `Slow test_lint;
    Alcotest.test_case "lint queries" `Slow test_lint_queries;
    Alcotest.test_case "error handling" `Slow test_error_handling;
    Alcotest.test_case "fta engines agree" `Slow test_fta_engines_agree;
    Alcotest.test_case "search output golden" `Slow test_search_golden;
  ]
