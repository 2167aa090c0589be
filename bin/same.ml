(* same — the SAME command-line tool: automated FME(D)A, safety-mechanism
   search, fault-tree analysis and assurance-case evaluation over block
   diagram models. *)

open Cmdliner

let load_diagram path =
  try Ok (Blockdiag.Text_format.parse_file path) with
  | Blockdiag.Text_format.Parse_error { line; message } ->
      Error (Printf.sprintf "%s:%d: %s" path line message)
  | Sys_error m -> Error m

let load_reliability = function
  | None -> Ok Reliability.Reliability_model.table_ii
  | Some path -> (
      try Ok (Reliability.Reliability_model.of_spreadsheet (Modelio.Spreadsheet.load path))
      with
      | Reliability.Reliability_model.Format_error m ->
          Error (Printf.sprintf "%s: %s" path m)
      | Sys_error m -> Error m
      | Modelio.Csv.Parse_error { line; message } ->
          Error (Printf.sprintf "%s:%d: %s" path line message))

let load_sm_model = function
  | None -> Ok Reliability.Sm_model.extended_catalogue
  | Some path -> (
      try Ok (Reliability.Sm_model.of_spreadsheet (Modelio.Spreadsheet.load path))
      with
      | Reliability.Sm_model.Format_error m ->
          Error (Printf.sprintf "%s: %s" path m)
      | Sys_error m -> Error m
      | Modelio.Csv.Parse_error { line; message } ->
          Error (Printf.sprintf "%s:%d: %s" path line message))

let target_conv =
  let parse s =
    match Ssam.Requirement.integrity_level_of_string s with
    | Some l -> Ok l
    | None -> Error (`Msg (Printf.sprintf "unknown integrity level %S" s))
  in
  let print ppf l =
    Format.fprintf ppf "%s" (Ssam.Requirement.integrity_level_to_string l)
  in
  Arg.conv (parse, print)

(* Common arguments *)

let diagram_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"DIAGRAM" ~doc:"Block diagram model (.bd text format).")

let reliability_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "r"; "reliability" ] ~docv:"CSV"
        ~doc:
          "Component reliability model (CSV: Component, FIT, Failure_Mode, \
           Distribution).  Defaults to the paper's Table II.")

let sm_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "s"; "safety-mechanisms" ] ~docv:"CSV"
        ~doc:
          "Safety mechanism model (CSV: Component, Failure_Mode, \
           Safety_Mechanism, Cov., Cost(hrs)).  Defaults to the built-in \
           catalogue.")

let exclude_arg =
  Arg.(
    value & opt_all string []
    & info [ "e"; "exclude" ] ~docv:"ID"
        ~doc:"Component assumed stable and excluded from injection.")

let monitored_arg =
  Arg.(
    value & opt_all string []
    & info [ "m"; "monitor" ] ~docv:"SENSOR"
        ~doc:
          "Sensor forming the safety observation (repeatable).  Default: all \
           sensors.")

let output_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"CSV" ~doc:"Write the FMEDA table as CSV.")

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for the parallel analysis kernels (overrides the \
           $(b,SAME_JOBS) environment variable; default: the machine's \
           recommended domain count).  $(b,1) forces sequential execution.")

let set_jobs = function
  | None -> ()
  | Some n when n >= 1 -> Exec.set_default_jobs n
  | Some n -> Printf.eprintf "warning: ignoring non-positive --jobs %d\n" n

let sched_arg =
  let modes =
    [ ("seq", Exec.Cost.Seq); ("par", Exec.Cost.Par); ("auto", Exec.Cost.Auto) ]
  in
  Arg.(
    value
    & opt (some (enum modes)) None
    & info [ "sched" ] ~docv:"MODE"
        ~doc:
          "Parallel scheduling mode (overrides the $(b,SAME_SCHED) \
           environment variable): $(b,seq) forces sequential execution, \
           $(b,par) always dispatches to the pool, $(b,auto) (the default) \
           parallelises only when the measured per-task cost clears the \
           dispatch overhead.")

let set_sched = function None -> () | Some m -> Exec.Cost.set_sched m

let strict_arg =
  Arg.(
    value & flag
    & info [ "strict" ]
        ~doc:
          "Lint the inputs first ($(b,same lint)) and abort with exit 1 on \
           any lint error.")

let cache_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache" ] ~docv:"DIR"
        ~doc:
          "On-disk artefact cache for the incremental engine: analysis \
           results are fingerprinted and reused across runs whose inputs \
           are unchanged (corrupt or truncated entries are recomputed).  \
           The directory is created on demand.")

let explain_arg =
  Arg.(
    value & flag
    & info [ "explain" ]
        ~doc:
          "Print the incremental-engine statistics — cache hits and misses, \
           solves performed, rows reused — after the analysis.")

(* [--cache] and/or [--explain] opt the run into the incremental engine;
   without either flag the historical direct computation runs. *)
let make_engine cache explain =
  match (cache, explain) with
  | None, false -> None
  | _ ->
      Some
        (Engine.Pipeline.create ~cache:(Engine.Cache.create ?dir:cache ()) ())

(* Under --explain the scheduler verdict is always printed — including
   when every batch ran sequentially, which on a small model is itself
   the interesting fact ("auto chose sequential: est 1.2us/task below
   the 48us dispatch overhead"). *)
let report_stats explain engine =
  (match engine with
  | Some e when explain ->
      Format.printf "%a@." Engine.Stats.pp (Engine.Pipeline.snapshot e)
  | _ -> ());
  if explain then Format.printf "%a@." Exec.Cost.pp_decisions ();
  match engine with
  | Some e -> Engine.Pipeline.save_cost_state e
  | None -> ()

(* The `--strict` gate shared by fmea/fmeda/optimize: lint exactly the
   artefacts the analysis is about to consume. *)
let strict_ok ~strict ?diagram ?reliability ?sm ?(exclude = [])
    ?(monitored = []) () =
  (not strict)
  ||
  let input =
    {
      Lint.Input.empty with
      Lint.Input.diagram;
      reliability;
      sm;
      exclude;
      monitored;
    }
  in
  let diagnostics = Lint.Driver.run input in
  if Lint.Driver.has_errors diagnostics then begin
    prerr_string (Lint.Driver.to_text diagnostics);
    prerr_endline "error: lint errors in the inputs (--strict)";
    false
  end
  else true

let route_arg =
  let routes =
    [
      ("injection", Decisive.Api.Via_injection);
      ("ssam", Decisive.Api.Via_ssam_paths);
      ("fta", Decisive.Api.Via_fta);
    ]
  in
  Arg.(
    value
    & opt (enum routes) Decisive.Api.Via_injection
    & info [ "route" ] ~docv:"ROUTE"
        ~doc:
          "Analysis route: $(b,injection) (circuit failure injection), \
           $(b,ssam) (path algorithm on the transformed model) or $(b,fta) \
           (fault-tree cut sets).")

let with_diagram_and_models diagram_path reliability_path f =
  match load_diagram diagram_path with
  | Error m ->
      Printf.eprintf "error: %s\n" m;
      1
  | Ok diagram -> (
      match load_reliability reliability_path with
      | Error m ->
          Printf.eprintf "error: %s\n" m;
          1
      | Ok reliability -> f diagram reliability)

let report_table output table =
  Format.printf "%a@." Fmea.Table.pp table;
  Format.printf "%a@." Fmea.Metrics.pp_breakdown (Fmea.Metrics.compute table);
  (match output with
  | Some path ->
      Decisive.Api.export_fmeda ~path table;
      Format.printf "FMEDA written to %s@." path
  | None -> ());
  0

(* Daemon routing (`--connect`): ship the model texts to a running
   `same serve` and print its response instead of computing locally. *)

let connect_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "connect" ] ~docv:"SOCKET"
        ~doc:
          "Route the analysis through a running $(b,same serve) daemon on \
           this Unix socket: the warm engine reuses golden factorisations \
           and cached results across requests and sessions.")

let read_file path =
  try
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    Ok s
  with Sys_error m -> Error m

let daemon_analyse ~socket ~analysis ~diagram_path ?reliability_path ?sm_path
    ~params () =
  let ( let* ) r f =
    match r with
    | Error m ->
        Printf.eprintf "error: %s\n" m;
        1
    | Ok v -> f v
  in
  let read_opt = function
    | None -> Ok None
    | Some path -> Result.map Option.some (read_file path)
  in
  let* a_diagram = read_file diagram_path in
  let* a_reliability = read_opt reliability_path in
  let* a_sm = read_opt sm_path in
  let a =
    {
      Serve.Protocol.a_analysis = analysis;
      a_diagram;
      a_reliability;
      a_sm;
      a_params = List.filter (fun (_, v) -> v <> "") params;
    }
  in
  match Serve.Client.one_shot ~socket (Serve.Protocol.Analyse a) with
  | Error m ->
      Printf.eprintf "error: %s\n" m;
      1
  | Ok json ->
      (match Modelio.Json.(Option.bind (member "output" json) to_str) with
      | Some out -> print_string out
      | None -> ());
      (match Modelio.Json.(Option.bind (member "exit" json) to_float) with
      | Some code -> int_of_float code
      | None -> 0)

let comma ids = String.concat "," ids

(* same lint *)

let severity_conv =
  let parse s =
    match Lint.Rule.severity_of_string s with
    | Some v -> Ok v
    | None -> Error (`Msg (Printf.sprintf "unknown severity %S" s))
  in
  Arg.conv (parse, fun ppf s -> Format.pp_print_string ppf (Lint.Rule.severity_to_string s))

let lint_cmd =
  let diagram_arg =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"DIAGRAM" ~doc:"Block diagram model (.bd) to lint.")
  in
  let query_arg =
    Arg.(
      value & opt_all file []
      & info [ "q"; "query" ] ~docv:"FILE"
          ~doc:
            "Query (extraction constraint) source to typecheck (repeatable).")
  in
  let format_arg =
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
      & info [ "format" ] ~docv:"FMT"
          ~doc:"Report format: $(b,text) or $(b,json) (SARIF-style).")
  in
  let rules_arg =
    Arg.(
      value & opt_all string []
      & info [ "rules" ] ~docv:"IDS"
          ~doc:
            "Only run these rule ids (comma-separated, repeatable), e.g. \
             $(b,--rules SSAM001,REL009).")
  in
  let severity_arg =
    Arg.(
      value
      & opt (some severity_conv) None
      & info [ "severity" ] ~docv:"LEVEL"
          ~doc:
            "Minimum severity to report: $(b,error), $(b,warning) or \
             $(b,info).")
  in
  let category_arg =
    Arg.(
      value & opt_all string []
      & info [ "category" ] ~docv:"PACK"
          ~doc:
            "Only report findings from these rule packs (comma-separated, \
             repeatable): $(b,ssam), $(b,blk), $(b,rel), $(b,qry), \
             $(b,dfa) or $(b,fta).")
  in
  let list_arg =
    Arg.(
      value & flag
      & info [ "list" ] ~doc:"Print the rule catalogue and exit.")
  in
  let run list_rules format rules categories severity diagram_path
      reliability_path sm_path query_paths exclude monitored jobs connect =
    set_jobs jobs;
    match (connect, diagram_path) with
    | Some _, None ->
        Printf.eprintf "error: --connect lints a DIAGRAM (with -r/-s/-q)\n";
        2
    | Some socket, Some diagram_path -> (
        let query =
          match query_paths with
          | [] -> Ok ("", "")
          | [ path ] -> Result.map (fun src -> (path, src)) (read_file path)
          | _ -> Error "--connect takes at most one --query"
        in
        match query with
        | Error m ->
            Printf.eprintf "error: %s\n" m;
            2
        | Ok (qname, query) ->
            daemon_analyse ~socket ~analysis:Serve.Protocol.Lint ~diagram_path
              ?reliability_path ?sm_path
              ~params:
                [
                  ("exclude", comma exclude);
                  ("monitored", comma monitored);
                  ( "severity",
                    match severity with
                    | None -> ""
                    | Some s -> Lint.Rule.severity_to_string s );
                  ("query", query);
                  ("qname", qname);
                  (* Labels only: keep daemon diagnostics prefixed with
                     the same file names the local CLI would print. *)
                  ("name", diagram_path);
                  ("rname", Option.value reliability_path ~default:"");
                  ("sname", Option.value sm_path ~default:"");
                  ( "format",
                    match format with `Text -> "" | `Json -> "json" );
                ]
              ())
    | None, _ ->
    if list_rules then begin
      List.iter
        (fun (r : Lint.Rule.t) ->
          Printf.printf "%-8s %-8s %-12s %s\n" r.Lint.Rule.id
            (Lint.Rule.severity_to_string r.Lint.Rule.severity)
            (Lint.Rule.category_to_string r.Lint.Rule.category)
            r.Lint.Rule.title)
        Lint.Driver.catalogue;
      0
    end
    else begin
      let rules =
        List.concat_map (String.split_on_char ',') rules
        |> List.map String.trim
        |> List.filter (fun s -> s <> "")
      in
      let category_names =
        List.concat_map (String.split_on_char ',') categories
        |> List.map String.trim
        |> List.filter (fun s -> s <> "")
      in
      let categories, bad_categories =
        List.partition_map
          (fun s ->
            match Lint.Rule.category_of_string s with
            | Some c -> Left c
            | None -> Right s)
          category_names
      in
      let unknown =
        List.filter (fun id -> Lint.Driver.find_rule id = None) rules
      in
      match (unknown, bad_categories) with
      | id :: _, _ ->
          Printf.eprintf "error: unknown rule id '%s' (see same lint --list)\n"
            id;
          2
      | [], c :: _ ->
          Printf.eprintf
            "error: unknown category '%s' (ssam, blk, rel, qry, dfa or fta)\n"
            c;
          2
      | [], [] -> (
          let ( let* ) r f =
            match r with
            | Error m ->
                Printf.eprintf "error: %s\n" m;
                Error 1
            | Ok v -> f v
          in
          let outcome =
            let* diagram =
              match diagram_path with
              | None -> Ok None
              | Some path ->
                  Result.map (fun d -> Some (path, d)) (load_diagram path)
            in
            let* reliability =
              match (reliability_path, diagram) with
              | None, None -> Ok None
              | _ ->
                  Result.map
                    (fun r -> Some (reliability_path, r))
                    (load_reliability reliability_path)
            in
            let* sm =
              match (sm_path, diagram) with
              | None, None -> Ok None
              | _ -> Result.map (fun s -> Some (sm_path, s)) (load_sm_model sm_path)
            in
            let* queries =
              List.fold_left
                (fun acc path ->
                  match acc with
                  | Error _ as e -> e
                  | Ok qs -> (
                      try
                        let ic = open_in_bin path in
                        let n = in_channel_length ic in
                        let s = really_input_string ic n in
                        close_in ic;
                        Ok ((path, s) :: qs)
                      with Sys_error m -> Error m))
                (Ok []) query_paths
              |> Result.map List.rev
            in
            if diagram = None && reliability = None && sm = None && queries = []
            then begin
              Printf.eprintf
                "error: nothing to lint (give a DIAGRAM, -r, -s or -q)\n";
              Error 2
            end
            else
              Ok
                {
                  Lint.Input.empty with
                  Lint.Input.diagram;
                  reliability;
                  sm;
                  queries;
                  exclude;
                  monitored;
                }
          in
          match outcome with
          | Error code -> code
          | Ok input ->
              let diagnostics =
                Lint.Driver.run ~rules ~categories ?min_severity:severity
                  input
              in
              (match format with
              | `Text -> print_string (Lint.Driver.to_text diagnostics)
              | `Json ->
                  print_endline
                    (Modelio.Json.to_string ~indent:2
                       (Lint.Driver.to_json diagnostics)));
              if Lint.Driver.has_errors diagnostics then 1 else 0)
    end
  in
  let doc =
    "Statically check designs, reliability/SM models and queries against the \
     rule catalogue (exit 1 on errors)."
  in
  Cmd.v (Cmd.info "lint" ~doc)
    Term.(
      const run $ list_arg $ format_arg $ rules_arg $ category_arg
      $ severity_arg $ diagram_arg $ reliability_arg $ sm_arg $ query_arg
      $ exclude_arg $ monitored_arg $ jobs_arg $ connect_arg)

(* same diagnose *)

let diagnose_cmd =
  let output_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"SENSOR"
          ~doc:"The observation point whose deviation to explain.")
  in
  let format_arg =
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json); ("sarif", `Sarif) ])
          `Text
      & info [ "format" ] ~docv:"FMT"
          ~doc:"Report format: $(b,text), $(b,json) or $(b,sarif).")
  in
  let structural_arg =
    Arg.(
      value & flag
      & info [ "structural" ]
          ~doc:
            "Skip the numeric verification step: report every structural \
             candidate instead of injecting each one against the golden \
             run.")
  in
  let run diagram_path output reliability_path exclude monitored format
      structural jobs sched connect =
    set_jobs jobs;
    set_sched sched;
    match connect with
    | Some socket ->
        daemon_analyse ~socket ~analysis:Serve.Protocol.Diagnose ~diagram_path
          ?reliability_path
          ~params:
            [
              ("output", output);
              ("exclude", comma exclude);
              ("monitored", comma monitored);
              ("structural", if structural then "true" else "");
              ( "format",
                match format with
                | `Text -> ""
                | `Json -> "json"
                | `Sarif -> "sarif" );
            ]
          ()
    | None ->
    let ( let* ) r f =
      match r with
      | Error m ->
          Printf.eprintf "error: %s\n" m;
          1
      | Ok v -> f v
    in
    let* diagram = load_diagram diagram_path in
    let* reliability = load_reliability reliability_path in
    let model =
      Dataflow.Model.of_diagram ~monitored ~reliability diagram
    in
    let verify =
      if structural then None
      else
        let options =
          { Fmea.Injection_fmea.default_options with exclude }
        in
        match
          Dataflow.Diagnose.circuit_verifier ~options ~reliability ~output
            diagram
        with
        | Ok v -> Some v
        | Error why ->
            Printf.eprintf
              "warning: numeric verification unavailable (%s); reporting \
               structural candidates\n"
              why;
            None
    in
    match Dataflow.Diagnose.diagnose ?verify model ~output with
    | Error m ->
        Printf.eprintf "error: %s\n" m;
        2
    | Ok report ->
        (match format with
        | `Text -> print_string (Dataflow.Diagnose.to_text report)
        | `Json ->
            print_endline
              (Modelio.Json.to_string ~indent:2
                 (Dataflow.Diagnose.to_json report))
        | `Sarif ->
            print_endline
              (Modelio.Json.to_string ~indent:2
                 (Dataflow.Diagnose.to_sarif report)));
        if report.Dataflow.Diagnose.agree then 0 else 1
  in
  let doc =
    "Explain an observed output deviation: backward propagation proposes \
     the failure modes that can reach the output, numeric fault injection \
     confirms or refutes each, and the minimal single/double-point \
     explanations are reported (the inverse of $(b,same fmea))."
  in
  Cmd.v (Cmd.info "diagnose" ~doc)
    Term.(
      const run $ diagram_arg $ output_arg $ reliability_arg $ exclude_arg
      $ monitored_arg $ format_arg $ structural_arg $ jobs_arg $ sched_arg
      $ connect_arg)

(* same fmea *)

let batch_arg =
  Arg.(
    value & flag
    & info [ "batch" ]
        ~doc:
          "Batch-fleet mode: analyse every $(i,DIAGRAM) with one warm \
           engine.  Variants sharing a circuit design share golden \
           factorisations, and all remaining injections run as a single \
           scheduled pool batch; prints a per-variant and fleet summary \
           instead of full tables.")

let diagrams_arg =
  Arg.(
    non_empty
    & pos_all file []
    & info [] ~docv:"DIAGRAM"
        ~doc:
          "Block diagram model (.bd text format); repeatable with \
           $(b,--batch).")

let load_diagrams paths =
  List.fold_left
    (fun acc path ->
      match acc with
      | Error _ as e -> e
      | Ok vs -> Result.map (fun d -> (path, d) :: vs) (load_diagram path))
    (Ok []) paths
  |> Result.map List.rev

(* The shared front half of `same fmea --batch` / `same fmeda --batch`:
   load the fleet, gate it on --strict, run it through one warm engine.
   [k] receives the engine, the loaded variants (label = file path, in
   input order) and the fleet summary. *)
let with_fleet paths reliability_path exclude monitored strict cache explain k
    =
  match load_diagrams paths with
  | Error m ->
      Printf.eprintf "error: %s\n" m;
      1
  | Ok variants -> (
      match load_reliability reliability_path with
      | Error m ->
          Printf.eprintf "error: %s\n" m;
          1
      | Ok reliability ->
          if
            strict
            && not
                 (List.for_all
                    (fun (path, diagram) ->
                      strict_ok ~strict ~diagram:(path, diagram)
                        ~reliability:(reliability_path, reliability) ~exclude
                        ~monitored ())
                    variants)
          then 1
          else begin
            let options =
              {
                Fmea.Injection_fmea.default_options with
                exclude;
                monitored_sensors =
                  (match monitored with [] -> None | ids -> Some ids);
              }
            in
            let engine =
              match make_engine cache explain with
              | Some e -> e
              | None -> Engine.Pipeline.create ()
            in
            match
              Engine.Batch.run_fmea engine ~options variants reliability
            with
            | exception Fmea.Injection_fmea.Golden_run_failed m ->
                Printf.eprintf "error: golden simulation failed: %s\n" m;
                1
            | summary -> k engine variants reliability summary
          end)

let fmea_cmd =
  let run_single diagram_path reliability_path exclude monitored output route
      strict cache explain =
    with_diagram_and_models diagram_path reliability_path
      (fun diagram reliability ->
        if
          not
            (strict_ok ~strict ~diagram:(diagram_path, diagram)
               ~reliability:(reliability_path, reliability) ~exclude ~monitored
               ())
        then 1
        else
          let monitored_sensors =
            match monitored with [] -> None | ids -> Some ids
          in
          let engine = make_engine cache explain in
          match
            Decisive.Api.analyse ?engine ~route ~exclude ?monitored_sensors
              diagram reliability
          with
          | table ->
              let code = report_table output table in
              report_stats explain engine;
              code
          | exception Fmea.Injection_fmea.Golden_run_failed m ->
              Printf.eprintf "error: golden simulation failed: %s\n" m;
              1
          | exception Fta.From_ssam.No_paths c ->
              Printf.eprintf "error: no input-output paths through %s\n" c;
              1)
  in
  let run diagram_paths reliability_path exclude monitored output route strict
      jobs sched cache explain batch connect =
    set_jobs jobs;
    set_sched sched;
    match (connect, diagram_paths) with
    | Some socket, [ diagram_path ] ->
        daemon_analyse ~socket ~analysis:Serve.Protocol.Fmea ~diagram_path
          ?reliability_path
          ~params:
            [ ("exclude", comma exclude); ("monitored", comma monitored) ]
          ()
    | Some _, _ ->
        Printf.eprintf "error: --connect takes a single DIAGRAM\n";
        2
    | None, _ ->
    if batch then
      if route <> Decisive.Api.Via_injection then begin
        Printf.eprintf "error: --batch supports only --route injection\n";
        2
      end
      else
        with_fleet diagram_paths reliability_path exclude monitored strict
          cache explain (fun engine _variants _reliability summary ->
            Format.printf "%a@." Engine.Batch.pp_summary summary;
            (match output with
            | Some path ->
                Modelio.Csv.write_file path (Engine.Batch.to_csv summary);
                Format.printf "fleet summary written to %s@." path
            | None -> ());
            report_stats explain (Some engine);
            0)
    else
      match diagram_paths with
      | [ diagram_path ] ->
          run_single diagram_path reliability_path exclude monitored output
            route strict cache explain
      | _ ->
          Printf.eprintf
            "error: analysing several DIAGRAMs requires --batch\n";
          2
  in
  let doc = "Automated FMEA (DECISIVE Step 4a)." in
  Cmd.v
    (Cmd.info "fmea" ~doc)
    Term.(
      const run $ diagrams_arg $ reliability_arg $ exclude_arg $ monitored_arg
      $ output_arg $ route_arg $ strict_arg $ jobs_arg $ sched_arg $ cache_arg
      $ explain_arg $ batch_arg $ connect_arg)

(* same fmeda *)

let target_arg =
  Arg.(
    value
    & opt target_conv Ssam.Requirement.ASIL_B
    & info [ "t"; "target" ] ~docv:"LEVEL"
        ~doc:"Target integrity level (QM, ASIL-A..D, SIL1..4).")

let fmeda_cmd =
  let run_single diagram_path reliability_path sm_path exclude monitored
      output target strict cache explain =
    with_diagram_and_models diagram_path reliability_path
      (fun diagram reliability ->
        match load_sm_model sm_path with
        | Error m ->
            Printf.eprintf "error: %s\n" m;
            1
        | Ok sm_model when
            not
              (strict_ok ~strict ~diagram:(diagram_path, diagram)
                 ~reliability:(reliability_path, reliability)
                 ~sm:(sm_path, sm_model) ~exclude ~monitored ()) ->
            1
        | Ok sm_model -> (
            let monitored_sensors =
              match monitored with [] -> None | ids -> Some ids
            in
            let engine = make_engine cache explain in
            match
              Decisive.Api.analyse ?engine ~exclude ?monitored_sensors diagram
                reliability
            with
            | exception Fmea.Injection_fmea.Golden_run_failed m ->
                Printf.eprintf "error: golden simulation failed: %s\n" m;
                1
            | table ->
                let conversion = Blockdiag.To_netlist.convert diagram in
                let refinement =
                  Decisive.Api.refine ?engine ~target
                    ~component_types:conversion.Blockdiag.To_netlist.block_types
                    table sm_model
                in
                let code = report_table output refinement.Decisive.Api.refined_table in
                print_string (Decisive.Api.refinement_text ~target refinement);
                report_stats explain engine;
                code))
  in
  let run diagram_paths reliability_path sm_path exclude monitored output
      target strict jobs sched cache explain batch connect =
    set_jobs jobs;
    set_sched sched;
    match (connect, diagram_paths) with
    | Some socket, [ diagram_path ] ->
        daemon_analyse ~socket ~analysis:Serve.Protocol.Fmeda ~diagram_path
          ?reliability_path ?sm_path
          ~params:
            [
              ("exclude", comma exclude);
              ("monitored", comma monitored);
              ( "target",
                Ssam.Requirement.integrity_level_to_string target );
            ]
          ()
    | Some _, _ ->
        Printf.eprintf "error: --connect takes a single DIAGRAM\n";
        2
    | None, _ ->
    if batch then
      match load_sm_model sm_path with
      | Error m ->
          Printf.eprintf "error: %s\n" m;
          1
      | Ok sm_model ->
          with_fleet diagram_paths reliability_path exclude monitored strict
            cache explain (fun engine variants _reliability summary ->
              Format.printf "%a@." Engine.Batch.pp_summary summary;
              (* Step 4b per variant, still against the shared warm
                 engine: search results cache by table fingerprint, so
                 variants sharing a design also share the search. *)
              let code =
                List.fold_left2
                  (fun worst (_, diagram)
                       (e : Engine.Batch.fmea_entry) ->
                    let conversion = Blockdiag.To_netlist.convert diagram in
                    let refinement =
                      Decisive.Api.refine ~engine ~target
                        ~component_types:
                          conversion.Blockdiag.To_netlist.block_types
                        e.Engine.Batch.b_table sm_model
                    in
                    Format.printf "%-24s %a@." e.Engine.Batch.b_label
                      (fun ppf () ->
                        Fmea.Asil.pp_verdict ppf ~target
                          ~spfm:refinement.Decisive.Api.achieved_spfm)
                      ();
                    match refinement.Decisive.Api.chosen with
                    | Some _ -> worst
                    | None -> 1)
                  0 variants summary.Engine.Batch.f_entries
              in
              (match output with
              | Some path ->
                  Modelio.Csv.write_file path (Engine.Batch.to_csv summary);
                  Format.printf "fleet summary written to %s@." path
              | None -> ());
              report_stats explain (Some engine);
              code)
    else
      match diagram_paths with
      | [ diagram_path ] ->
          run_single diagram_path reliability_path sm_path exclude monitored
            output target strict cache explain
      | _ ->
          Printf.eprintf
            "error: analysing several DIAGRAMs requires --batch\n";
          2
  in
  let doc = "Automated FMEDA with safety-mechanism search (Steps 4a + 4b)." in
  Cmd.v
    (Cmd.info "fmeda" ~doc)
    Term.(
      const run $ diagrams_arg $ reliability_arg $ sm_arg $ exclude_arg
      $ monitored_arg $ output_arg $ target_arg $ strict_arg $ jobs_arg
      $ sched_arg $ cache_arg $ explain_arg $ batch_arg $ connect_arg)

(* same optimize *)

let optimize_cmd =
  let run diagram_path reliability_path sm_path exclude target strict jobs
      cache explain =
    set_jobs jobs;
    with_diagram_and_models diagram_path reliability_path
      (fun diagram reliability ->
        match load_sm_model sm_path with
        | Error m ->
            Printf.eprintf "error: %s\n" m;
            1
        | Ok sm_model when
            not
              (strict_ok ~strict ~diagram:(diagram_path, diagram)
                 ~reliability:(reliability_path, reliability)
                 ~sm:(sm_path, sm_model) ~exclude ()) ->
            1
        | Ok sm_model ->
            let engine = make_engine cache explain in
            let table =
              Decisive.Api.analyse ?engine ~exclude diagram reliability
            in
            let conversion = Blockdiag.To_netlist.convert diagram in
            let refinement =
              Decisive.Api.refine ?engine ~target
                ~component_types:conversion.Blockdiag.To_netlist.block_types
                table sm_model
            in
            Format.printf "Pareto front (cost vs SPFM):@.";
            List.iter
              (fun (c : Optimize.Search.candidate) ->
                Format.printf "  cost %6.1f h   SPFM %6.2f%%   (%d mechanisms)@."
                  c.Optimize.Search.cost c.Optimize.Search.spfm_pct
                  (List.length c.Optimize.Search.deployments))
              refinement.Decisive.Api.pareto_front;
            (match refinement.Decisive.Api.chosen with
            | Some c ->
                Format.printf "chosen: cost %.1f h, SPFM %.2f%%@."
                  c.Optimize.Search.cost c.Optimize.Search.spfm_pct
            | None -> Format.printf "no candidate meets the target@.");
            report_stats explain engine;
            0)
  in
  let doc = "Search the cost/SPFM Pareto front of SM deployments." in
  Cmd.v
    (Cmd.info "optimize" ~doc)
    Term.(
      const run $ diagram_arg $ reliability_arg $ sm_arg $ exclude_arg
      $ target_arg $ strict_arg $ jobs_arg $ cache_arg $ explain_arg)

(* same transform *)

let transform_cmd =
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the round-tripped diagram (default: print summary).")
  in
  let run diagram_path out =
    match load_diagram diagram_path with
    | Error m ->
        Printf.eprintf "error: %s\n" m;
        1
    | Ok diagram ->
        let package = Blockdiag.Transform.to_ssam diagram in
        let back = Blockdiag.Transform.to_diagram package in
        let lossless = Blockdiag.Diagram.equal diagram back in
        Format.printf
          "transformed '%s': %d SSAM elements, round-trip lossless: %b@."
          diagram.Blockdiag.Diagram.diagram_name
          (Ssam.Architecture.count_package_elements package)
          lossless;
        (match out with
        | Some path ->
            Blockdiag.Text_format.write_file path back;
            Format.printf "round-tripped diagram written to %s@." path
        | None -> ());
        if lossless then 0 else 1
  in
  let doc = "Transform a diagram to SSAM and verify the lossless round-trip." in
  Cmd.v (Cmd.info "transform" ~doc) Term.(const run $ diagram_arg $ out_arg)

(* same fta *)

let fta_cmd =
  let diagram_pos =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"DIAGRAM" ~doc:"Block diagram model (.bd text format).")
  in
  let from_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "from" ] ~docv:"DIAGRAM"
          ~doc:
            "Block diagram to lower through the five-step structural \
             pipeline (alternative to the positional argument).")
  in
  let engine_arg =
    Arg.(
      value
      & opt (enum [ ("auto", `Auto); ("bdd", `Bdd) ]) `Auto
      & info [ "engine" ] ~docv:"ENGINE"
          ~doc:
            "Minimal-cut-set engine: $(b,auto) and $(b,bdd) are synonyms, \
             both read the cut sets off the compiled BDD.")
  in
  let card_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-cardinality" ] ~docv:"K"
          ~doc:"Only report minimal cut sets of at most $(docv) events.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:
            "Also write the analysis to $(docv): $(b,.dot) exports Graphviz, \
             $(b,.xml) exports Open-PSA MEF, any other suffix gets the text \
             report.")
  in
  let dot_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "dot" ] ~docv:"FILE" ~doc:"Write the tree as Graphviz dot.")
  in
  let psa_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "open-psa" ] ~docv:"FILE"
          ~doc:"Write the tree as Open-PSA MEF XML.")
  in
  let run pos_path from_path reliability_path engine max_card out dot psa
      connect =
    match (match from_path with Some p -> Some p | None -> pos_path) with
    | None ->
        Printf.eprintf "error: give a DIAGRAM argument or --from FILE\n";
        2
    | Some diagram_path when connect <> None ->
        let socket = Option.get connect in
        daemon_analyse ~socket ~analysis:Serve.Protocol.Fta ~diagram_path
          ?reliability_path
          ~params:
            [
              ("engine", match engine with `Auto -> "" | `Bdd -> "bdd");
              ( "max_cardinality",
                match max_card with
                | None -> ""
                | Some k -> string_of_int k );
            ]
          ()
    | Some path ->
        with_diagram_and_models path reliability_path
          (fun diagram reliability ->
            let name = diagram.Blockdiag.Diagram.diagram_name in
            match Fta.From_ssam.lower_diagram ~reliability diagram with
            | Error m ->
                Printf.eprintf "error: %s\n" m;
                1
            | Ok (tree, route) ->
                let report =
                  Fta.Report.text ?max_cardinality:max_card ~route tree
                in
                print_string report;
                (match out with
                | Some path when Filename.check_suffix path ".dot" ->
                    Fta.Export.save_dot ~path ~name tree;
                    Format.printf "dot written to %s@." path
                | Some path when Filename.check_suffix path ".xml" ->
                    Fta.Export.save_open_psa ~path ~model_name:name tree;
                    Format.printf "Open-PSA written to %s@." path
                | Some path ->
                    let oc = open_out path in
                    output_string oc report;
                    close_out oc;
                    Format.printf "report written to %s@." path
                | None -> ());
                (match dot with
                | Some path ->
                    Fta.Export.save_dot ~path ~name tree;
                    Format.printf "dot written to %s@." path
                | None -> ());
                (match psa with
                | Some path ->
                    Fta.Export.save_open_psa ~path ~model_name:name tree;
                    Format.printf "Open-PSA written to %s@." path
                | None -> ());
                0)
  in
  let doc =
    "Generate and analyse the fault tree of a design (structural lowering, \
     BDD cut sets, exact quantification)."
  in
  Cmd.v (Cmd.info "fta" ~doc)
    Term.(
      const run $ diagram_pos $ from_arg $ reliability_arg $ engine_arg
      $ card_arg $ out_arg $ dot_arg $ psa_arg $ connect_arg)

(* same assess *)

let assess_cmd =
  let model_pos =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"MODEL"
          ~doc:
            "Model to assess: a block diagram (.bd) or an Open-PSA MEF \
             fault tree (.xml).")
  in
  let from_arg =
    Arg.(
      value
      & opt
          (enum
             [ ("auto", `Auto); ("fta", `Fta); ("ssam", `Ssam);
               ("diagram", `Diagram) ])
          `Auto
      & info [ "from" ] ~docv:"KIND"
          ~doc:
            "How to read MODEL: $(b,fta) parses Open-PSA MEF XML, \
             $(b,diagram) lowers a block diagram structurally, $(b,ssam) \
             lowers through the transformed SSAM view (path enumeration). \
             $(b,auto) picks by file suffix.")
  in
  let mission_arg =
    Arg.(
      value
      & opt float Assess.Mc.default.Assess.Mc.mission_hours
      & info [ "mission-hours" ] ~docv:"H"
          ~doc:"Mission time in hours for the exponential failure model.")
  in
  let trials_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "trials" ] ~docv:"N"
          ~doc:
            "Trial budget, positive (rounded up to whole replicates). \
             Mutually exclusive with $(b,--rel-precision).")
  in
  let precision_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "rel-precision" ] ~docv:"P"
          ~doc:
            (Printf.sprintf
               "Adaptive budget: sample until the 99%% confidence \
                half-width falls below $(docv) times the estimate, or \
                until %d trials. $(docv) must be positive."
               Assess.Mc.default.Assess.Mc.max_trials))
  in
  let method_arg =
    Arg.(
      value
      & opt
          (enum
             [ ("direct", Assess.Mc.Direct);
               ("importance", Assess.Mc.Importance);
               ("stratified", Assess.Mc.Stratified) ])
          Assess.Mc.Direct
      & info [ "method" ] ~docv:"METHOD"
          ~doc:
            "Sampling scheme: $(b,direct), $(b,importance) (rate-tilted \
             with likelihood-ratio weights, for rare top events) or \
             $(b,stratified).")
  in
  let seed_arg =
    Arg.(
      value
      & opt int Assess.Mc.default.Assess.Mc.seed
      & info [ "seed" ] ~docv:"SEED"
          ~doc:
            "Master RNG seed. Results are bit-identical for a fixed seed \
             across every $(b,SAME_JOBS) setting.")
  in
  let out_arg =
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
      & info [ "o"; "output" ] ~docv:"FORMAT"
          ~doc:"Report format: $(b,text) or $(b,json).")
  in
  let check_arg =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Exit non-zero unless the BDD-exact top probability was \
             computed and lies inside the Monte-Carlo confidence \
             interval.")
  in
  let lower_diagram path reliability_path via_ssam =
    match load_diagram path with
    | Error m -> Error m
    | Ok diagram -> (
        match load_reliability reliability_path with
        | Error m -> Error m
        | Ok reliability -> (
            if not via_ssam then
              Result.map fst (Fta.From_ssam.lower_diagram ~reliability diagram)
            else
              let root = Decisive.Api.functional_root ~reliability diagram in
              match Fta.From_ssam.generate root with
              | tree -> Ok tree
              | exception Fta.From_ssam.No_paths c ->
                  Error
                    (Printf.sprintf "no input-output paths through %s" c)))
  in
  let load_tree path from reliability_path =
    let kind =
      match from with
      | `Auto ->
          if Filename.check_suffix path ".xml" then `Fta else `Diagram
      | `Fta -> `Fta
      | `Ssam -> `Ssam
      | `Diagram -> `Diagram
    in
    match kind with
    | `Fta -> (
        try Ok (Fta.Export.load_open_psa ~path) with
        | Fta.Export.Format_error m ->
            Error (Printf.sprintf "%s: %s" path m)
        | Sys_error m -> Error m
        | Modelio.Xml.Parse_error { pos; message } ->
            Error (Printf.sprintf "%s: at offset %d: %s" path pos message))
    | `Diagram -> lower_diagram path reliability_path false
    | `Ssam -> lower_diagram path reliability_path true
  in
  let report_json (r : Assess.Mc.report) =
    let open Modelio.Json in
    let num x = Number x in
    let opt = function Some x -> Number x | None -> Null in
    Object
      [
        ("top_probability", num r.Assess.Mc.top_probability);
        ("ci_halfwidth", num r.Assess.Mc.halfwidth);
        ("trials", num (float_of_int r.Assess.Mc.trials));
        ("elapsed_s", num r.Assess.Mc.elapsed_s);
        ("trials_per_sec", num r.Assess.Mc.trials_per_sec);
        ("sampling", String (Assess.Mc.sampling_to_string r.Assess.Mc.sampling));
        ("mission_hours", num r.Assess.Mc.mission_hours);
        ("instructions", num (float_of_int r.Assess.Mc.instrs));
        ("exact", opt r.Assess.Mc.exact);
        ("exact_delta", opt r.Assess.Mc.exact_delta);
        ( "events",
          List
            (List.map
               (fun (e : Assess.Mc.event_report) ->
                 Object
                   [
                     ("id", String e.Assess.Mc.event_id);
                     ("probability", num e.Assess.Mc.probability);
                     ("importance", num e.Assess.Mc.importance);
                   ])
               r.Assess.Mc.events) );
      ]
  in
  let report_text (r : Assess.Mc.report) =
    Printf.printf "top event (%s, %g h mission): %.6e +/- %.1e (99%% CI)\n"
      (Assess.Mc.sampling_to_string r.Assess.Mc.sampling)
      r.Assess.Mc.mission_hours r.Assess.Mc.top_probability
      r.Assess.Mc.halfwidth;
    Printf.printf "trials: %d  (%.1f Mtrials/s, %.3f s, %d instructions)\n"
      r.Assess.Mc.trials
      (r.Assess.Mc.trials_per_sec /. 1e6)
      r.Assess.Mc.elapsed_s r.Assess.Mc.instrs;
    (match (r.Assess.Mc.exact, r.Assess.Mc.exact_delta) with
    | Some exact, Some delta ->
        Printf.printf "BDD-exact cross-check: %.6e  delta %.1e  %s\n" exact
          delta
          (if delta <= r.Assess.Mc.halfwidth then "(inside CI)"
           else "(OUTSIDE CI)")
    | _ -> ());
    if r.Assess.Mc.events <> [] then begin
      Printf.printf "event importance (Fussell-Vesely style):\n";
      List.iter
        (fun (e : Assess.Mc.event_report) ->
          Printf.printf "  %-32s p=%.3e  importance %.3f\n"
            e.Assess.Mc.event_id e.Assess.Mc.probability
            e.Assess.Mc.importance)
        r.Assess.Mc.events
    end
  in
  let run path from reliability_path mission trials precision method_ seed out
      check connect =
    match path with
    | None ->
        Printf.eprintf "error: give a MODEL argument\n";
        2
    | Some diagram_path when connect <> None ->
        if Filename.check_suffix diagram_path ".xml" then begin
          Printf.eprintf
            "error: --connect assesses block diagrams (the daemon lowers \
             them); load Open-PSA trees locally\n";
          2
        end
        else
          let socket = Option.get connect in
          daemon_analyse ~socket ~analysis:Serve.Protocol.Assess
            ~diagram_path ?reliability_path
            ~params:
              [
                ("mission_hours", Printf.sprintf "%.17g" mission);
                ( "trials",
                  match trials with
                  | None -> ""
                  | Some t -> string_of_int t );
                ( "rel_precision",
                  match precision with
                  | None -> ""
                  | Some p -> Printf.sprintf "%.17g" p );
                ( "method",
                  match method_ with
                  | Assess.Mc.Direct -> "direct"
                  | Assess.Mc.Importance -> "importance"
                  | Assess.Mc.Stratified -> "stratified" );
                ("seed", string_of_int seed);
                ("check", if check then "true" else "");
              ]
            ()
    | Some path -> (
        match load_tree path from reliability_path with
        | Error m ->
            Printf.eprintf "error: %s\n" m;
            1
        | Ok tree -> (
            let config =
              {
                Assess.Mc.default with
                Assess.Mc.mission_hours = mission;
                sampling = method_;
                trials;
                rel_precision = precision;
                seed;
              }
            in
            match Assess.Mc.run config tree with
            | exception Invalid_argument m ->
                Printf.eprintf "error: %s\n" m;
                1
            | report ->
                (match out with
                | `Text -> report_text report
                | `Json ->
                    print_endline
                      (Modelio.Json.to_string ~indent:2 (report_json report)));
                if check then
                  match report.Assess.Mc.exact_delta with
                  | Some delta when delta <= report.Assess.Mc.halfwidth -> 0
                  | Some _ ->
                      Printf.eprintf
                        "error: estimate outside the 99%% CI of the \
                         BDD-exact probability\n";
                      1
                  | None ->
                      Printf.eprintf
                        "error: --check needs the BDD-exact cross-check \
                         (tree too large)\n";
                      1
                else 0))
  in
  let doc =
    "Bit-parallel Monte-Carlo safety assessment: estimate the mission \
     failure probability of a fault tree (or a design lowered to one) at \
     millions of trials per second, with confidence intervals and a \
     BDD-exact cross-check on tractable trees."
  in
  Cmd.v (Cmd.info "assess" ~doc)
    Term.(
      const run $ model_pos $ from_arg $ reliability_arg $ mission_arg
      $ trials_arg $ precision_arg $ method_arg $ seed_arg $ out_arg
      $ check_arg $ connect_arg)

(* same assure *)

let assure_cmd =
  let csv_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FMEDA_CSV" ~doc:"FMEDA table produced by $(b,same fmea -o).")
  in
  let system_arg =
    Arg.(
      value & opt string "system"
      & info [ "n"; "name" ] ~docv:"NAME" ~doc:"System name for the case.")
  in
  let dot_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "dot" ] ~docv:"FILE"
          ~doc:"Write the goal structure as Graphviz dot, coloured by verdict.")
  in
  let run csv system target dot =
    let case =
      Decisive.Api.assurance_case_for ~system ~target ~fmeda_csv:csv
    in
    let report = Assurance.Eval.evaluate case in
    Format.printf "%a@." Assurance.Eval.pp_report report;
    print_string (Assurance.Gsn_render.to_text ~report case);
    (match dot with
    | Some path ->
        Assurance.Gsn_render.save_dot ~path ~report case;
        Format.printf "dot written to %s@." path
    | None -> ());
    match report.Assurance.Eval.overall with
    | Assurance.Eval.Holds -> 0
    | Assurance.Eval.Fails | Assurance.Eval.Undetermined -> 1
  in
  let doc = "Build and evaluate the assurance case over an FMEDA artefact." in
  Cmd.v
    (Cmd.info "assure" ~doc)
    Term.(const run $ csv_arg $ system_arg $ target_arg $ dot_arg)

(* same run (full DECISIVE loop) *)

let run_cmd =
  let name_arg =
    Arg.(
      value & opt string "system"
      & info [ "n"; "name" ] ~docv:"NAME" ~doc:"Process/system name.")
  in
  let run diagram_path reliability_path sm_path exclude monitored target name
      jobs =
    set_jobs jobs;
    with_diagram_and_models diagram_path reliability_path
      (fun diagram reliability ->
        match load_sm_model sm_path with
        | Error m ->
            Printf.eprintf "error: %s\n" m;
            1
        | Ok sm_model ->
            let monitored_sensors =
              match monitored with [] -> None | ids -> Some ids
            in
            let process, table =
              Decisive.Api.run_decisive ~name ~target ~exclude
                ?monitored_sensors diagram reliability sm_model
            in
            Format.printf "%a@." Decisive.Process.pp_history process;
            Format.printf "%a@." Fmea.Table.pp table;
            if Decisive.Process.is_complete process then 0 else 1)
  in
  let doc = "Run the full DECISIVE loop (Fig. 1) to a safety concept." in
  Cmd.v
    (Cmd.info "run" ~doc)
    Term.(
      const run $ diagram_arg $ reliability_arg $ sm_arg $ exclude_arg
      $ monitored_arg $ target_arg $ name_arg $ jobs_arg)

(* same simulate *)

let simulate_cmd =
  let source_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "source" ] ~docv:"ID"
          ~doc:"Source element to drive with a sine disturbance.")
  in
  let amplitude_arg =
    Arg.(
      value & opt float 0.3
      & info [ "amplitude" ] ~docv:"V" ~doc:"Disturbance amplitude.")
  in
  let hz_arg =
    Arg.(
      value & opt float 5000.0
      & info [ "hz" ] ~docv:"HZ" ~doc:"Disturbance frequency.")
  in
  let dt_arg =
    Arg.(value & opt float 1e-6 & info [ "dt" ] ~docv:"S" ~doc:"Time step.")
  in
  let duration_arg =
    Arg.(
      value & opt float 5e-3
      & info [ "duration" ] ~docv:"S" ~doc:"Simulated duration.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"CSV"
          ~doc:"Write all node-voltage traces as CSV.")
  in
  let run diagram_path source amplitude hz dt duration out =
    match load_diagram diagram_path with
    | Error m ->
        Printf.eprintf "error: %s\n" m;
        1
    | Ok diagram -> (
        let conversion = Blockdiag.To_netlist.convert diagram in
        let nl = conversion.Blockdiag.To_netlist.netlist in
        let waveforms =
          match source with
          | None -> []
          | Some id ->
              let nominal =
                match Circuit.Netlist.find nl id with
                | Some { Circuit.Element.kind = Circuit.Element.Vsource v; _ } -> v
                | Some { Circuit.Element.kind = Circuit.Element.Isource i; _ } -> i
                | Some _ | None -> 0.0
              in
              [
                ( id,
                  fun t ->
                    nominal +. (amplitude *. sin (2.0 *. Float.pi *. hz *. t)) );
              ]
        in
        match Circuit.Transient.simulate ~waveforms nl ~dt ~duration with
        | Error e ->
            Format.eprintf "error: %a@." Circuit.Dc.pp_error e;
            1
        | Ok r ->
            let times = Circuit.Transient.times r in
            let nodes = Circuit.Netlist.nodes nl in
            Printf.printf "%d steps over %gs; final node voltages:\n"
              (Array.length times - 1)
              duration;
            List.iter
              (fun n ->
                let trace = Circuit.Transient.node_voltage r n in
                Printf.printf "  %-8s %+10.5f V   ripple %8.5f V\n" n
                  (Circuit.Transient.final_value trace)
                  (Circuit.Transient.ripple trace))
              nodes;
            (match out with
            | Some path ->
                let header = "t" :: nodes in
                let rows =
                  List.init (Array.length times) (fun i ->
                      Printf.sprintf "%g" times.(i)
                      :: List.map
                           (fun n ->
                             Printf.sprintf "%g"
                               (Circuit.Transient.node_voltage r n).(i))
                           nodes)
                in
                Modelio.Csv.write_file path (header :: rows);
                Printf.printf "traces written to %s\n" path
            | None -> ());
            0)
  in
  let doc = "Transient (time-domain) simulation of a design." in
  Cmd.v
    (Cmd.info "simulate" ~doc)
    Term.(
      const run $ diagram_arg $ source_arg $ amplitude_arg $ hz_arg $ dt_arg
      $ duration_arg $ out_arg)

(* same bode *)

let bode_cmd =
  let source_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "source" ] ~docv:"ID" ~doc:"Source carrying the AC stimulus.")
  in
  let sensor_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "sensor" ] ~docv:"ID"
          ~doc:"Sensor whose transfer function to print (default: all).")
  in
  let from_arg =
    Arg.(value & opt float 10.0 & info [ "from" ] ~docv:"HZ" ~doc:"Sweep start.")
  in
  let to_arg =
    Arg.(
      value & opt float 100_000.0 & info [ "to" ] ~docv:"HZ" ~doc:"Sweep end.")
  in
  let points_arg =
    Arg.(value & opt int 31 & info [ "points" ] ~docv:"N" ~doc:"Sweep points.")
  in
  let run diagram_path source sensor from_hz to_hz points =
    match load_diagram diagram_path with
    | Error m ->
        Printf.eprintf "error: %s\n" m;
        1
    | Ok diagram -> (
        let conversion = Blockdiag.To_netlist.convert diagram in
        let nl = conversion.Blockdiag.To_netlist.netlist in
        let freqs = Circuit.Ac.log_space ~from_hz ~to_hz ~points in
        match Circuit.Ac.analyse ~source nl ~frequencies_hz:freqs with
        | Error e ->
            Format.eprintf "error: %a@." Circuit.Dc.pp_error e;
            1
        | Ok sweep ->
            let sensors =
              match sensor with
              | Some id -> [ id ]
              | None ->
                  List.filter_map
                    (fun (e : Circuit.Element.t) ->
                      match e.Circuit.Element.kind with
                      | Circuit.Element.Current_sensor
                      | Circuit.Element.Voltage_sensor ->
                          Some e.Circuit.Element.id
                      | _ -> None)
                    (Circuit.Netlist.elements nl)
            in
            List.iter
              (fun id ->
                match Circuit.Ac.sensor_response sweep id with
                | exception Not_found ->
                    Printf.eprintf "warning: no sensor %s\n" id
                | pts ->
                    Printf.printf "%s (stimulus on %s):\n" id source;
                    List.iter
                      (fun (p : Circuit.Ac.point) ->
                        Printf.printf "  %10.1f Hz  %8.2f dB  %7.1f deg\n"
                          p.Circuit.Ac.frequency_hz p.Circuit.Ac.magnitude_db
                          p.Circuit.Ac.phase_deg)
                      pts;
                    (match Circuit.Ac.cutoff_hz pts with
                    | Some fc -> Printf.printf "  -3 dB cutoff: %.0f Hz\n" fc
                    | None -> Printf.printf "  no cutoff within the sweep\n"))
              sensors;
            0)
  in
  let doc = "AC small-signal frequency sweep (Bode data) of a design." in
  Cmd.v
    (Cmd.info "bode" ~doc)
    Term.(
      const run $ diagram_arg $ source_arg $ sensor_arg $ from_arg $ to_arg
      $ points_arg)

(* same degrade *)

let degrade_cmd =
  let source_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "source" ] ~docv:"ID"
          ~doc:"Supply element to drive with the disturbance.")
  in
  let factor_arg =
    Arg.(
      value & opt float 2.0
      & info [ "factor" ] ~docv:"X"
          ~doc:"Report failures whose ripple exceeds this multiple of nominal.")
  in
  let run diagram_path reliability_path source factor exclude =
    with_diagram_and_models diagram_path reliability_path
      (fun diagram reliability ->
        let conversion = Blockdiag.To_netlist.convert diagram in
        let options =
          {
            (Fmea.Degradation.default_options ~disturbance_source:source) with
            Fmea.Degradation.ripple_factor = factor;
            exclude;
          }
        in
        match
          Fmea.Degradation.analyse
            ~element_types:conversion.Blockdiag.To_netlist.block_types ~options
            conversion.Blockdiag.To_netlist.netlist reliability
        with
        | findings ->
            Format.printf "%a@." Fmea.Degradation.pp_findings findings;
            0
        | exception Fmea.Degradation.Golden_transient_failed m ->
            Printf.eprintf "error: golden transient failed: %s\n" m;
            1)
  in
  let doc =
    "Time-domain degradation analysis: failures that weaken disturbance \
     rejection without breaking the DC function."
  in
  Cmd.v
    (Cmd.info "degrade" ~doc)
    Term.(
      const run $ diagram_arg $ reliability_arg $ source_arg $ factor_arg
      $ exclude_arg)

(* same report *)

let report_cmd =
  let name_arg =
    Arg.(
      value & opt string "system"
      & info [ "n"; "name" ] ~docv:"NAME" ~doc:"System name for the report.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"MD"
          ~doc:"Write the safety-concept report to this file (default: stdout).")
  in
  let run diagram_path reliability_path sm_path exclude monitored target name
      out =
    with_diagram_and_models diagram_path reliability_path
      (fun diagram reliability ->
        match load_sm_model sm_path with
        | Error m ->
            Printf.eprintf "error: %s\n" m;
            1
        | Ok sm_model ->
            let monitored_sensors =
              match monitored with [] -> None | ids -> Some ids
            in
            let process, fmeda =
              Decisive.Api.run_decisive ~name ~target ~exclude
                ?monitored_sensors diagram reliability sm_model
            in
            let deployments =
              List.filter_map
                (fun (r : Fmea.Table.row) ->
                  match (r.Fmea.Table.safety_mechanism, r.Fmea.Table.sm_coverage_pct) with
                  | Some sm, Some cov ->
                      Some
                        (Fmea.Fmeda.deploy ~component:r.Fmea.Table.component
                           ~failure_mode:r.Fmea.Table.failure_mode
                           {
                             Reliability.Sm_model.sm_name = sm;
                             component_type = r.Fmea.Table.component;
                             failure_mode = r.Fmea.Table.failure_mode;
                             coverage_pct = cov;
                             cost = 0.0;
                           })
                  | _ -> None)
                fmeda.Fmea.Table.rows
            in
            let input =
              Decisive.Report.make_input ~deployments ~process
                ~system_name:name ~target fmeda
            in
            (match out with
            | Some path ->
                Decisive.Report.save ~path input;
                Format.printf "report written to %s@." path
            | None -> print_string (Decisive.Report.to_markdown input));
            if Decisive.Report.verdict input then 0 else 1)
  in
  let doc = "Generate the Markdown safety-concept report (Step 5)." in
  Cmd.v
    (Cmd.info "report" ~doc)
    Term.(
      const run $ diagram_arg $ reliability_arg $ sm_arg $ exclude_arg
      $ monitored_arg $ target_arg $ name_arg $ out_arg)

(* same diff *)

let diff_cmd =
  let old_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"OLD" ~doc:"Previous iteration's diagram.")
  in
  let new_arg =
    Arg.(
      required
      & pos 1 (some file) None
      & info [] ~docv:"NEW" ~doc:"Current iteration's diagram.")
  in
  let run old_path new_path =
    match (load_diagram old_path, load_diagram new_path) with
    | Error m, _ | _, Error m ->
        Printf.eprintf "error: %s\n" m;
        1
    | Ok old_diagram, Ok new_diagram ->
        let wrap d =
          Blockdiag.Transform.to_ssam_model d
        in
        let impact =
          Ssam.Diff.analyse ~old_model:(wrap old_diagram)
            ~new_model:(wrap new_diagram)
        in
        Format.printf "%a@." Ssam.Diff.pp_impact impact;
        if impact.Ssam.Diff.reanalysis_required then begin
          Format.printf
            "re-run `same fmea %s` — the previous analysis is stale@."
            new_path;
          1
        end
        else 0
  in
  let doc =
    "Change-impact analysis between two design iterations (exit 1 when \
     re-analysis is required)."
  in
  Cmd.v (Cmd.info "diff" ~doc) Term.(const run $ old_arg $ new_arg)

(* same coverage *)

let coverage_cmd =
  let run diagram_path =
    match load_diagram diagram_path with
    | Error m ->
        Printf.eprintf "error: %s\n" m;
        1
    | Ok diagram ->
        let types =
          List.map
            (fun (b : Blockdiag.Diagram.block) -> b.Blockdiag.Diagram.block_type)
            (Blockdiag.Diagram.all_blocks diagram)
        in
        Format.printf "%a@." Circuit.Library.pp_coverage
          (Circuit.Library.coverage types);
        0
  in
  let doc = "Report block-library coverage for a design (evaluation RQ2)." in
  Cmd.v (Cmd.info "coverage" ~doc) Term.(const run $ diagram_arg)

(* same scale *)

let scale_cmd =
  (* --analysis path-fmea: Algorithm 1's dominator classification on
     synthetic block diagrams with closed-form path counts (diamond chain
     for --topology ladder, block grid for --topology grid). *)
  let run_path_fmea n topology =
    let sys, paths =
      match topology with
      | `Ladder ->
          ( Circuit.Generator.diamond_arch ~stages:n,
            Circuit.Generator.diamond_path_count ~stages:n )
      | `Grid ->
          let side =
            max 1 (int_of_float (Float.round (sqrt (float_of_int n))))
          in
          ( Circuit.Generator.grid_arch ~rows:side ~cols:side,
            Circuit.Generator.grid_path_count ~rows:side ~cols:side )
    in
    let timed f =
      let t0 = Unix.gettimeofday () in
      let r = f () in
      (r, Unix.gettimeofday () -. t0)
    in
    Printf.printf "architecture %s: %d blocks, %s input→output paths\n"
      (Ssam.Architecture.component_id sys)
      (List.length sys.Ssam.Architecture.children)
      (if paths = max_int then "> 2^62" else string_of_int paths);
    let table, t_dom = timed (fun () -> Fmea.Path_fmea.analyse sys) in
    let sr = Fmea.Table.safety_related_components table in
    Printf.printf "dominator classification: %d single points in %.3f ms\n"
      (List.length sr) (1000.0 *. t_dom);
    0
  in
  (* --analysis batch-fmea: the fleet workload — N PSU design variants
     (cycling 3 electrical designs) cold (N independent engines) vs warm
     (one engine, shared golden factorisations, one flat pool batch). *)
  let run_batch_fmea n =
    let count = max 2 (min n 1024) in
    let variants = Decisive.Case_study.design_variants ~count () in
    let reliability = Decisive.Case_study.reliability_model in
    let options = Decisive.Case_study.injection_options in
    let timed f =
      let t0 = Unix.gettimeofday () in
      let r = f () in
      (r, Unix.gettimeofday () -. t0)
    in
    let cold, t_cold =
      timed (fun () ->
          List.map
            (fun (label, diagram) ->
              let e = Engine.Pipeline.create () in
              let table =
                Engine.Pipeline.injection_fmea e ~options diagram reliability
              in
              let snap = Engine.Pipeline.snapshot e in
              (label, table, snap.Engine.Stats.golden_solves))
            variants)
    in
    let cold_golden =
      List.fold_left (fun acc (_, _, g) -> acc + g) 0 cold
    in
    let engine = Engine.Pipeline.create () in
    let summary, t_fleet =
      timed (fun () ->
          Engine.Batch.run_fmea engine ~options variants reliability)
    in
    let snap = Engine.Pipeline.snapshot engine in
    let identical =
      List.for_all2
        (fun (_, table, _) (e : Engine.Batch.fmea_entry) ->
          Fmea.Table.equal table e.Engine.Batch.b_table)
        cold summary.Engine.Batch.f_entries
    in
    Printf.printf
      "fleet of %d variants (%d distinct designs, %d rows total)\n" count
      summary.Engine.Batch.f_distinct_designs summary.Engine.Batch.f_rows;
    Printf.printf "cold (N independent engines): %.3f ms, %d golden solves\n"
      (1000.0 *. t_cold) cold_golden;
    Printf.printf "warm fleet (one engine):      %.3f ms, %d golden solves\n"
      (1000.0 *. t_fleet) snap.Engine.Stats.golden_solves;
    Printf.printf "speedup %.2fx, golden solves %d -> %d, identical %b\n"
      (t_cold /. t_fleet) cold_golden snap.Engine.Stats.golden_solves
      identical;
    if identical && snap.Engine.Stats.golden_solves < cold_golden then 0
    else 1
  in
  let run n topology analysis jobs sched =
    set_jobs jobs;
    set_sched sched;
    if analysis = `Path_fmea then run_path_fmea n topology
    else if analysis = `Batch_fmea then run_batch_fmea n
    else
    let nl =
      match topology with
      | `Ladder -> Circuit.Generator.ladder ~sections:n
      | `Grid ->
          let side = max 1 (int_of_float (Float.round (sqrt (float_of_int n)))) in
          Circuit.Generator.grid ~rows:side ~cols:side
    in
    let p = Circuit.Dc.prepare nl in
    Printf.printf "netlist %s: %d elements, %d unknowns\n"
      (Circuit.Netlist.name nl)
      (Circuit.Netlist.element_count nl)
      (Circuit.Dc.size p);
    let timed f =
      let t0 = Unix.gettimeofday () in
      let r = f () in
      (r, Unix.gettimeofday () -. t0)
    in
    match timed (fun () -> Circuit.Dc.factorise p) with
    | Error e, _ ->
        Format.eprintf "error: golden solve failed: %a@." Circuit.Dc.pp_error e;
        1
    | Ok g, t_factor ->
        Printf.printf "golden factorisation: %.1f ms\n" (1000.0 *. t_factor);
        (* A handful of representative injections: the low-rank re-solve
           against a fresh analysis of the faulted netlist. *)
        let cases =
          List.filter_map
            (fun (e : Circuit.Element.t) ->
              match e.Circuit.Element.kind with
              | Circuit.Element.Resistor _ | Circuit.Element.Load _ ->
                  Some (e.Circuit.Element.id, Circuit.Fault.Open_circuit)
              | _ -> None)
            (Circuit.Netlist.elements nl)
        in
        let stride = max 1 (List.length cases / 12) in
        let cases = List.filteri (fun i _ -> i mod stride = 0) cases in
        let max_dev = ref 0.0 and t_fast = ref 0.0 and t_fresh = ref 0.0 in
        List.iter
          (fun (id, fault) ->
            let fast, tf =
              timed (fun () -> Circuit.Dc.inject g ~element_id:id fault)
            in
            let fresh, tr =
              timed (fun () ->
                  Circuit.Dc.analyse
                    (Circuit.Fault.inject nl ~element_id:id fault))
            in
            t_fast := !t_fast +. tf;
            t_fresh := !t_fresh +. tr;
            match (fast, fresh) with
            | Ok sf, Ok sd ->
                List.iter2
                  (fun (_, a) (_, b) ->
                    max_dev := Float.max !max_dev (Float.abs (a -. b)))
                  (Circuit.Dc.all_sensor_readings sf)
                  (Circuit.Dc.all_sensor_readings sd)
            | _ -> ())
          cases;
        let n_cases = float_of_int (List.length cases) in
        Printf.printf
          "%d injections: low-rank re-solve %.3f ms/inj, fresh analysis \
           %.3f ms/inj (speedup %.1fx)\n"
          (List.length cases)
          (1000.0 *. !t_fast /. n_cases)
          (1000.0 *. !t_fresh /. n_cases)
          (!t_fresh /. !t_fast);
        Printf.printf "max sensor-reading deviation: %.3g\n" !max_dev;
        0
  in
  let positive_int =
    let parse s =
      match int_of_string_opt s with
      | Some n when n >= 1 -> Ok n
      | Some n -> Error (`Msg (Printf.sprintf "N must be at least 1 (got %d)" n))
      | None -> Error (`Msg (Printf.sprintf "invalid integer %S" s))
    in
    Arg.conv (parse, Format.pp_print_int)
  in
  let n_arg =
    Arg.(
      value & opt positive_int 512
      & info [ "n" ] ~docv:"N"
          ~doc:
            "Scale parameter, at least 1: ladder sections, or grid node \
             count.")
  in
  let topology_arg =
    Arg.(
      value
      & opt (enum [ ("ladder", `Ladder); ("grid", `Grid) ]) `Ladder
      & info [ "topology" ] ~docv:"TOPOLOGY" ~doc:"$(b,ladder) or $(b,grid).")
  in
  let analysis_arg =
    Arg.(
      value
      & opt
          (enum
             [
               ("injection", `Injection);
               ("path-fmea", `Path_fmea);
               ("batch-fmea", `Batch_fmea);
             ])
          `Injection
      & info [ "analysis" ] ~docv:"ANALYSIS"
          ~doc:
            "$(b,injection) benchmarks the fault-injection kernels on a \
             synthetic netlist; $(b,path-fmea) benchmarks Algorithm 1's \
             dominator classification on a synthetic block diagram (for \
             $(b,ladder), $(docv) is the diamond-chain stage count; for \
             $(b,grid), the approximate block count); $(b,batch-fmea) \
             benchmarks the batch-fleet engine on $(docv) PSU design \
             variants — one warm engine vs $(docv) cold runs (exit 0 iff \
             the fleet shares golden solves and the tables are identical).")
  in
  let doc =
    "Benchmark the analysis kernels on synthetic scalable models."
  in
  Cmd.v (Cmd.info "scale" ~doc)
    Term.(const run $ n_arg $ topology_arg $ analysis_arg $ jobs_arg $ sched_arg)

(* same serve / same client *)

let socket_arg =
  Arg.(
    value
    & opt string "/tmp/same.sock"
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix domain socket to listen on (or connect to).")

let serve_cmd =
  let cache_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache" ] ~docv:"DIR"
          ~doc:
            "Persist the engine's content-addressed cache in $(docv) \
             (survives daemon restarts).  Default: memory-only.")
  in
  let run socket cache jobs =
    set_jobs jobs;
    let jobs =
      match jobs with Some n when n >= 1 -> n | _ -> Exec.default_jobs ()
    in
    match
      Serve.Server.run
        { Serve.Server.socket_path = socket; cache_dir = cache; jobs }
    with
    | () -> 0
    | exception Unix.Unix_error (e, _, arg) ->
        Printf.eprintf "error: %s: %s\n" arg (Unix.error_message e);
        1
  in
  let doc =
    "Run the analysis daemon: one warm engine behind a Unix socket.  \
     Concurrent requests with identical content share one computation \
     (single-flight) and one cache entry; sessions stream model edits and \
     get back only the FMEA rows that changed.  Stop with SIGTERM or a \
     $(b,shutdown) request."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(const run $ socket_arg $ cache_dir_arg $ jobs_arg)

let client_cmd =
  let request_arg =
    let requests =
      [
        ("ping", Serve.Protocol.Ping);
        ("stats", Serve.Protocol.Stats);
        ("shutdown", Serve.Protocol.Shutdown);
      ]
    in
    Arg.(
      required
      & pos 0 (some (enum requests)) None
      & info [] ~docv:"REQUEST"
          ~doc:"$(b,ping), $(b,stats) or $(b,shutdown).")
  in
  let run socket request =
    match Serve.Client.one_shot ~socket request with
    | Error m ->
        Printf.eprintf "error: %s\n" m;
        1
    | Ok json ->
        print_endline (Modelio.Json.to_string ~indent:2 json);
        0
  in
  let doc =
    "Control a running $(b,same serve) daemon (analyses route through it \
     with the analysis commands' $(b,--connect) option)."
  in
  Cmd.v (Cmd.info "client" ~doc) Term.(const run $ socket_arg $ request_arg)

let main =
  let doc = "Safety Analysis Management Environment (DECISIVE tooling)" in
  let info = Cmd.info "same" ~version:"1.0.0" ~doc in
  Cmd.group info
    [
      serve_cmd;
      client_cmd;
      lint_cmd;
      diagnose_cmd;
      scale_cmd;
      fmea_cmd;
      fmeda_cmd;
      optimize_cmd;
      transform_cmd;
      fta_cmd;
      assess_cmd;
      assure_cmd;
      run_cmd;
      report_cmd;
      diff_cmd;
      simulate_cmd;
      bode_cmd;
      degrade_cmd;
      coverage_cmd;
    ]

let () = exit (Cmd.eval' main)
