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

(* The Fig. 11 PSU, pinned byte for byte: the injection FMEA table,
   step 4b's FMEDA with its verdict and deployment, the ten-point Pareto
   front, the fault tree, the diagnosis of CS1, the lint findings, the
   transient run under a sine on DC1 (summary and the CSV traces of a
   short run), its Bode sweep, the degradation findings, the full
   DECISIVE run, its Markdown safety-concept report and a two-variant
   FMEDA fleet. *)
let test_search_golden () =
  with_fixture (fun ~bin ~dir ~bd:_ ->
      let check_golden golden out =
        Alcotest.(check string)
          ("output = golden/" ^ golden)
          (read_file ("golden/" ^ golden))
          (read_file out)
      in
      let same args out =
        Alcotest.(check int) (args ^ " exits 0") 0
          (Sys.command
             (Printf.sprintf "%s %s > %s" bin args (Filename.quote out)))
      in
      List.iter
        (fun (golden, command, args) ->
          let out = Filename.concat dir golden in
          same
            (Printf.sprintf "%s ../examples/models/psu.bd %s" command args)
            out;
          check_golden golden out)
        [
          ("psu_fmea.txt", "fmea", "-e DC1");
          ("psu_fmeda.txt", "fmeda", "-e DC1 -t ASIL-B");
          ("psu_optimize.txt", "optimize", "-e DC1 -t ASIL-B");
          ("psu_fta.txt", "fta", "");
          ("psu_diagnose.txt", "diagnose", "-o CS1 -e DC1");
          ("psu_lint.txt", "lint", "");
          ("psu_simulate.txt", "simulate", "--source DC1");
          ("psu_bode.txt", "bode", "--source DC1");
          ("psu_degrade.txt", "degrade", "--source DC1 -e DC1");
          ("psu_run.txt", "run", "-e DC1 -t ASIL-B");
          ("psu_report.md", "report", "-e DC1 -t ASIL-B -n PSU");
          ( "psu_fmeda_batch.txt",
            "fmeda --batch ../examples/models/psu.bd",
            "-e DC1 -t ASIL-B" );
        ];
      let csv = Filename.concat dir "psu_simulate.csv" in
      same
        (Printf.sprintf
           "simulate ../examples/models/psu.bd --source DC1 --duration 2e-5 \
            -o %s"
           (Filename.quote csv))
        (Filename.concat dir "simulate_csv.txt");
      check_golden "psu_simulate.csv" csv)

(* System B under the benchmark's options (supplies excluded, the three
   safety sensors monitored), pinned byte for byte: the FMEDA with step
   4b's verdict and deployment, and `same optimize` on the same design
   (no sensor monitored there, so its search space exceeds the exhaustive
   cap and the greedy fallback answers).  The inputs are written from
   [Fixtures.Systems.system_b]. *)
let write_system_b dir =
  let subject = Fixtures.Systems.system_b in
  let bd = Filename.concat dir "system_b.bd" in
  let rel = Filename.concat dir "system_b_reliability.csv" in
  Blockdiag.Text_format.write_file bd subject.Fixtures.Systems.diagram;
  let sheet =
    Modelio.Spreadsheet.first_sheet
      (Reliability.Reliability_model.to_spreadsheet
         subject.Fixtures.Systems.reliability)
  in
  Modelio.Csv.write_file rel
    (sheet.Modelio.Spreadsheet.table.Modelio.Csv.header
    :: sheet.Modelio.Spreadsheet.table.Modelio.Csv.rows);
  (bd, rel)

let test_system_b_golden () =
  with_fixture (fun ~bin ~dir ~bd:_ ->
      let bd, rel = write_system_b dir in
      List.iter
        (fun (golden, args) ->
          let out = Filename.concat dir golden in
          Alcotest.(check int) (golden ^ ": exit 0") 0
            (Sys.command
               (Printf.sprintf "%s %s %s -r %s -e DC1 -e BAT1 %s > %s" bin
                  (List.hd args) (Filename.quote bd) (Filename.quote rel)
                  (String.concat " " (List.tl args))
                  (Filename.quote out)));
          Alcotest.(check string)
            ("output = golden/" ^ golden)
            (read_file ("golden/" ^ golden))
            (read_file out))
        [
          ( "system_b_fmeda.txt",
            [ "fmeda"; "-t ASIL-B -m CS1 -m CS2 -m VS1" ] );
          ("system_b_optimize.txt", [ "optimize"; "-t ASIL-B" ]);
        ])

(* `same optimize -m` searches the table `same fmeda -m` searches: with
   System B's three safety sensors monitored it chooses the deployment
   whose SPFM golden/system_b_fmeda.txt pins. *)
let test_optimize_monitored () =
  with_fixture (fun ~bin ~dir ~bd:_ ->
      let bd, rel = write_system_b dir in
      let out = Filename.concat dir "optimize_monitored.txt" in
      Alcotest.(check int) "exit 0" 0
        (Sys.command
           (Printf.sprintf
              "%s optimize %s -r %s -e DC1 -e BAT1 -m CS1 -m CS2 -m VS1 -t \
               ASIL-B > %s"
              bin (Filename.quote bd) (Filename.quote rel) (Filename.quote out)));
      Alcotest.(check (list string))
        "chosen line" [ "chosen: cost 7.0 h, SPFM 90.64%" ]
        (List.filter
           (String.starts_with ~prefix:"chosen:")
           (String.split_on_char '\n' (read_file out))))

let test_error_handling () =
  with_fixture (fun ~bin ~dir ~bd ->
      (* Malformed diagram: non-zero exit, no crash. *)
      let bad = Filename.concat dir "bad.bd" in
      let oc = open_out bad in
      output_string oc "diagram oops {";
      close_out oc;
      Alcotest.(check bool) "parse error reported" true
        (run (Printf.sprintf "%s fmea %s" bin (Filename.quote bad)) <> 0);
      (* An unmet target is a verdict, not a crash: run and report print
         the history (the report) and exit 1 with nothing on stderr. *)
      let err = Filename.concat dir "unmet.err" in
      List.iter
        (fun command ->
          Alcotest.(check int) (command ^ " -t ASIL-D: exit 1") 1
            (Sys.command
               (Printf.sprintf "%s %s %s -e DC1 -t ASIL-D >/dev/null 2>%s" bin
                  command bd (Filename.quote err)));
          Alcotest.(check string) (command ^ " -t ASIL-D: stderr") ""
            (read_file err))
        [ "run"; "report" ];
      (* A design whose golden run is singular (two parallel sources of
         5 V and 3 V across one load) is an input error for every
         command that analyses it, not an uncaught exception. *)
      let singular = Filename.concat dir "singular.bd" in
      Out_channel.with_open_bin singular (fun oc ->
          output_string oc
            "diagram par {\n\
            \  block DC1 : vsource { volts = 5; }\n\
            \  block DC2 : vsource { volts = 3; }\n\
            \  block MC1 : microcontroller { ohms = 100; }\n\
            \  block GND1 : ground ports (conserving a);\n\
            \  connect DC1.a -> MC1.a;\n\
            \  connect DC2.a -> MC1.a;\n\
            \  connect MC1.b -> GND1.a;\n\
            \  connect DC1.b -> GND1.a;\n\
            \  connect DC2.b -> GND1.a;\n\
             }\n");
      List.iter
        (fun command ->
          Alcotest.(check int) (command ^ " singular golden: exit 1") 1
            (Sys.command
               (Printf.sprintf "%s %s %s >/dev/null 2>%s" bin command
                  (Filename.quote singular) (Filename.quote err)));
          Alcotest.(check string) (command ^ " singular golden: stderr")
            "error: golden simulation failed: singular MNA system (pivot \
             failure at unknown 2)\n"
            (read_file err))
        [ "fmea"; "fmeda"; "optimize"; "run"; "report" ];
      (* A catalogue number that parses but is not finite ("nan%"
         coverage, "nan" cost or distribution, "inf" FIT) is an error
         naming the file, not a NaN SPFM or cost. *)
      let nan_sm = Filename.concat dir "nan_sm.csv"
      and nan_cost = Filename.concat dir "nan_cost.csv"
      and nan_rel = Filename.concat dir "nan_rel.csv"
      and inf_rel = Filename.concat dir "inf_rel.csv" in
      List.iter
        (fun (file, text) ->
          Out_channel.with_open_bin file (fun oc -> output_string oc text))
        [
          ( nan_sm,
            "Component,Failure_Mode,Safety_Mechanism,Cov.,Cost(hrs)\n\
             MC,RAM Failure,ECC,nan%,2\n" );
          ( nan_cost,
            "Component,Failure_Mode,Safety_Mechanism,Cov.,Cost(hrs)\n\
             MC,RAM Failure,ECC,99%,nan\n" );
          ( nan_rel,
            "Component,FIT,Failure_Mode,Distribution\n\
             Diode,10,Open,nan%\n\
             ,,Short,70%\n" );
          ( inf_rel,
            "Component,FIT,Failure_Mode,Distribution\n\
             MC,inf,RAM Failure,100%\n" );
        ];
      List.iter
        (fun (args, message) ->
          let code =
            Sys.command
              (Printf.sprintf "%s %s >/dev/null 2>%s" bin args
                 (Filename.quote err))
          in
          Alcotest.(check int) (args ^ ": exit 1") 1 code;
          Alcotest.(check string) (args ^ ": message") ("error: " ^ message ^ "\n")
            (read_file err))
        [
          ( Printf.sprintf "optimize %s -e DC1 -t ASIL-B -s %s" bd nan_sm,
            nan_sm ^ ": coverage: not a finite number: \"nan%\"" );
          ( Printf.sprintf "optimize %s -e DC1 -t ASIL-B -s %s" bd nan_cost,
            nan_cost ^ ": cost: not a finite number: \"nan\"" );
          ( Printf.sprintf "fmeda %s -e DC1 -r %s" bd nan_rel,
            nan_rel ^ ": Distribution: not a finite number: \"nan%\"" );
          ( Printf.sprintf "fmeda %s -e DC1 -r %s" bd inf_rel,
            inf_rel ^ ": FIT: not a finite number: \"inf\"" );
          ( Printf.sprintf "lint %s -s %s" bd nan_sm,
            nan_sm ^ ": coverage: not a finite number: \"nan%\"" );
        ];
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
      (* Transient and AC inputs that used to escape as an uncaught
         exception, print NaN, run one step instead of 1e300, or drive
         nothing at all. *)
      List.iter
        (fun (command, args, message) ->
          let code =
            Sys.command
              (Printf.sprintf "%s %s %s %s >/dev/null 2>%s" bin command bd args
                 (Filename.quote err))
          in
          let label = command ^ " " ^ args in
          Alcotest.(check int) (label ^ ": exit 1") 1 code;
          Alcotest.(check string) (label ^ ": message")
            ("error: " ^ message ^ "\n")
            (In_channel.with_open_bin err In_channel.input_all))
        [
          ( "simulate",
            "--dt nan",
            "Transient.simulate: dt must be positive and finite (got nan)" );
          ( "simulate",
            "--duration inf",
            "Transient.simulate: duration must be positive and finite (got \
             inf)" );
          ( "simulate",
            "--dt 1e-300 --duration 1",
            "Transient.simulate: 1e+300 steps of 1e-300s are too many" );
          ( "simulate",
            "--source NOPE",
            "--source NOPE: no such element in the design" );
          ( "degrade",
            "--source NOPE",
            "--source NOPE: no such element in the design" );
          ( "degrade",
            "--source C1",
            "--source C1: a capacitor, not a voltage or current source" );
          ("bode", "--source NOPE", "--source NOPE: no such element in the design");
          ( "bode",
            "--source D1",
            "--source D1: a diode, not a voltage or current source" );
          ( "bode",
            "--source DC1 --points 1",
            "Ac.log_space: need at least 2 points (got 1)" );
          ( "bode",
            "--source DC1 --from 100 --to 10",
            "Ac.log_space: need 0 < from < to, finite (got 100 to 10)" );
        ];
      (* A diagram that parses but that the netlist conversion rejects —
         a two-terminal block of an unknown type, a non-positive value —
         is an input error naming the model for every command that
         converts it, not an uncaught exception. *)
      let rejected =
        [
          ( "widget.bd",
            "block MC1 : microcontroller { ohms = 100; }",
            "block MC1 : widget;",
            "block MC1: unsupported electrical block type 'widget'" );
          ( "negative.bd",
            "block MC1 : microcontroller { ohms = 100; }",
            "block MC1 : load { ohms = -3; }",
            "Element.make MC1: non-positive resistance" );
        ]
      in
      List.iter
        (fun (file, old_block, new_block, message) ->
          let path = Filename.concat dir file in
          let i =
            let n = String.length old_block in
            let rec find i =
              if String.sub psu_bd i n = old_block then i else find (i + 1)
            in
            find 0
          in
          Out_channel.with_open_bin path (fun oc ->
              output_string oc
                (String.sub psu_bd 0 i ^ new_block
                ^ String.sub psu_bd
                    (i + String.length old_block)
                    (String.length psu_bd - i - String.length old_block)));
          List.iter
            (fun command ->
              let label = file ^ ": " ^ command in
              Alcotest.(check int) (label ^ ": exit 1") 1
                (Sys.command
                   (Printf.sprintf "%s %s %s >/dev/null 2>%s" bin command
                      (Filename.quote path) (Filename.quote err)));
              Alcotest.(check string) (label ^ ": message")
                (Printf.sprintf "error: %s: %s\n" path message)
                (read_file err))
            [
              "fmea"; "fmeda"; "optimize"; "run"; "report";
              "simulate"; "bode --source DC1"; "degrade --source DC1";
              "diagnose --output CS1";
              (* a fleet names the variant the conversion rejected *)
              "fmea --batch " ^ Filename.quote bd;
              "fmeda --batch " ^ Filename.quote bd;
            ])
        rejected)

(* A daemon cannot write the CLI's files, lint first or keep its cache:
   under --connect those flags are usage errors, checked before any
   connection is made (no daemon listens on the socket here). *)
let test_connect_local_only () =
  with_fixture (fun ~bin ~dir ~bd ->
      let err = Filename.concat dir "connect.err" in
      let socket = Filename.concat dir "none.sock" in
      List.iter
        (fun (command, args, flag) ->
          let code =
            Sys.command
              (Printf.sprintf "%s %s %s %s --connect %s >/dev/null 2>%s" bin
                 command bd args socket (Filename.quote err))
          in
          let label = Printf.sprintf "%s %s" command args in
          Alcotest.(check int) (label ^ ": exit 2") 2 code;
          Alcotest.(check string) (label ^ ": message")
            (Printf.sprintf "error: %s does not work with --connect\n" flag)
            (read_file err))
        [
          ("fmea", "-o x.csv", "-o");
          ("fmea", "--cache cachedir", "--cache");
          ("fmea", "--explain", "--explain");
          ("fmea", "--strict", "--strict");
          ("fmea", "--batch", "--batch");
          ("fmeda", "-o x.csv", "-o");
          ("fmeda", "--cache cachedir", "--cache");
          ("fmeda", "--explain", "--explain");
          ("fmeda", "--strict", "--strict");
          ("fta", "-o ft.txt", "-o");
          ("fta", "--dot ft.dot", "--dot");
          ("fta", "--open-psa ft.xml", "--open-psa");
          ("lint", "--list", "--list");
          ("assess", "--from ssam", "--from ssam");
        ];
      Alcotest.(check bool) "no file written" false
        (Sys.file_exists "x.csv" || Sys.file_exists "ft.dot"))

(* Start-up cost: every cold `same` pays its libraries' module
   initialisers before main.  The runtime's exit report (v=0x400) counts
   what `--version` allocated; an eager table or an eagerly built model
   in a linked library pushes it past the bound or into a major
   collection. *)
let test_startup_allocation () =
  with_fixture (fun ~bin ~dir ~bd:_ ->
      let err = Filename.concat dir "version.err" in
      Alcotest.(check int) "--version exits 0" 0
        (Sys.command
           (Printf.sprintf "OCAMLRUNPARAM=v=0x400 %s --version >/dev/null 2>%s"
              bin (Filename.quote err)));
      let counter name =
        List.find_map
          (fun line ->
            match String.split_on_char ':' line with
            | [ key; value ] when String.trim key = name ->
                int_of_string_opt (String.trim value)
            | _ -> None)
          (String.split_on_char '\n' (read_file err))
        |> function
        | Some n -> n
        | None -> Alcotest.failf "no %s in the runtime's exit report" name
      in
      let words = counter "allocated_words" in
      Alcotest.(check bool)
        (Printf.sprintf "allocated words %d <= 30000" words)
        true (words <= 30_000);
      Alcotest.(check int) "major collections" 0 (counter "major_collections"))

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
    Alcotest.test_case "System B output golden" `Slow test_system_b_golden;
    Alcotest.test_case "optimize -m on System B" `Slow test_optimize_monitored;
    Alcotest.test_case "--connect local-only flags" `Quick
      test_connect_local_only;
    Alcotest.test_case "start-up allocation" `Quick test_startup_allocation;
  ]
