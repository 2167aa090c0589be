(* same — the SAME command-line tool: automated FME(D)A, safety-mechanism
   search, fault-tree analysis and assurance-case evaluation over block
   diagram models. *)

open Cmdliner

(* A failed step prints "error: ..." and exits 1. *)
let ( let* ) r f =
  match r with
  | Error m ->
      Printf.eprintf "error: %s\n" m;
      1
  | Ok v -> f v

let source path = Serve.Command.Path path
let load_diagram path = Serve.Command.parse_diagram (source path)
let load_sm_model path = Serve.Command.parse_sm (Option.map source path)

let load_reliability path =
  Serve.Command.parse_reliability (Option.map source path)

(* The models a command line names: files, whose paths label errors and
   lint findings. *)
let files ?reliability ?sm ?(queries = []) diagram =
  {
    Serve.Command.diagram = Option.map source diagram;
    reliability = Option.map source reliability;
    sm = Option.map source sm;
    queries = List.map source queries;
  }

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
           solves performed, Newton iterations, rows reused — and the \
           scheduler's verdicts after the analysis.")

(* Every analysis runs on the incremental engine; [--cache DIR] only
   adds its disk tier. *)
let make_engine cache =
  Engine.Pipeline.create ~cache:(Engine.Cache.create ?dir:cache ()) ()

(* Under --explain the scheduler verdict is always printed — including
   when every batch ran sequentially, which on a small model is itself
   the interesting fact ("auto chose sequential: est 1.2us/task below
   the 48us dispatch overhead"). *)
let report_stats explain engine =
  if explain then
    Format.printf "%a@.%a@." Engine.Stats.pp (Engine.Pipeline.snapshot engine)
      Exec.Cost.pp_decisions ();
  Engine.Pipeline.save_cost_state engine

(* The `--strict` gate of `--batch` and optimize. *)
let strict_ok ~strict ?diagram ?reliability ?sm ?(exclude = [])
    ?(monitored = []) () =
  (not strict)
  ||
  match
    Serve.Command.strict_findings ?diagram ?reliability ?sm ~exclude
      ~monitored ()
  with
  | None -> true
  | Some findings ->
      prerr_string findings;
      false

let route_arg =
  Arg.(
    value
    & opt (enum Serve.Command.routes) Decisive.Api.Via_injection
    & info [ "route" ] ~docv:"ROUTE"
        ~doc:
          "Analysis route: $(b,injection) (circuit failure injection), \
           $(b,ssam) (path algorithm on the transformed model) or $(b,fta) \
           (fault-tree cut sets).")

let with_diagram_and_models diagram_path reliability_path f =
  let* diagram = load_diagram diagram_path in
  let* reliability = load_reliability reliability_path in
  f diagram reliability

(* Each of fmea, fmeda, fta, assess, diagnose and lint builds a
   [Serve.Command.request] and runs it here, or with --connect in a
   running `same serve`: one implementation, the same bytes and exit
   code either way. *)

let connect_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "connect" ] ~docv:"SOCKET"
        ~doc:
          "Route the analysis through a running $(b,same serve) daemon on \
           this Unix socket: the warm engine reuses golden factorisations \
           and cached results across requests and sessions.")

let local ?engine models request =
  let r = Serve.Command.run ?engine ~wall_clock:true models request in
  prerr_string r.Serve.Command.err;
  print_string r.Serve.Command.out;
  r.Serve.Command.code

(* The daemon's reply carries stderr's text ahead of stdout's, all
   printed on stdout.  [local_only] pairs each flag a daemon cannot
   honour with whether it was given: any given one is a usage error. *)
let remote ~socket ?(local_only = []) models request =
  match List.find_opt snd local_only with
  | Some (flag, _) ->
      Printf.eprintf "error: %s does not work with --connect\n" flag;
      2
  | None ->
      let* a = Serve.Command.to_analyse models request in
      let* client = Serve.Client.connect socket in
      let reply = Serve.Client.analyse client a in
      Serve.Client.close client;
      let* r = reply in
      print_string r.Serve.Client.r_output;
      r.Serve.Client.r_exit

let dispatch ~connect ?local_only models request =
  match connect with
  | Some socket -> remote ~socket ?local_only models request
  | None -> local models request

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
    let split ids =
      List.concat_map (String.split_on_char ',') ids
      |> List.map String.trim
      |> List.filter (fun s -> s <> "")
    in
    let models =
      files ?reliability:reliability_path ?sm:sm_path ~queries:query_paths
        diagram_path
    in
    let request =
      Serve.Command.Lint
        {
          rules = split rules;
          categories = split categories;
          severity;
          format;
          exclude;
          monitored;
        }
    in
    match connect with
    | Some _ when diagram_path = None ->
        Printf.eprintf "error: --connect lints a DIAGRAM (with -r/-s/-q)\n";
        2
    | Some _ when List.length query_paths > 1 ->
        Printf.eprintf "error: --connect takes at most one --query\n";
        2
    | Some socket ->
        remote ~socket ~local_only:[ ("--list", list_rules) ] models request
    | None when list_rules ->
        List.iter
          (fun (r : Lint.Rule.t) ->
            Printf.printf "%-8s %-8s %-12s %s\n" r.Lint.Rule.id
              (Lint.Rule.severity_to_string r.Lint.Rule.severity)
              (Lint.Rule.category_to_string r.Lint.Rule.category)
              r.Lint.Rule.title)
          Lint.Driver.catalogue;
        0
    | None -> local models request
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
      structural jobs connect =
    set_jobs jobs;
    dispatch ~connect
      (files ?reliability:reliability_path (Some diagram_path))
      (Serve.Command.Diagnose
         { output; exclude; monitored; structural; format })
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
      $ monitored_arg $ format_arg $ structural_arg $ jobs_arg $ connect_arg)

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

(* A design whose golden (fault-free) run does not solve, or that the
   netlist conversion rejects, is an input error: [k ()]'s exit code, or
   1 after the message fmea and fmeda print. *)
let or_input_error ~model k =
  match Serve.Command.converting ~model k with
  | Ok code -> code
  | Error m ->
      Printf.eprintf "error: %s\n" m;
      1
  | exception Fmea.Injection_fmea.Golden_run_failed m ->
      Printf.eprintf "error: golden simulation failed: %s\n" m;
      1

(* [Blockdiag.To_netlist.convert], its rejections as a failed step. *)
let convert diagram_path diagram =
  Serve.Command.converting ~model:diagram_path (fun () ->
      Blockdiag.To_netlist.convert diagram)

(* `same fmea --batch` / `same fmeda --batch`: load the fleet, gate it
   on --strict, run it through one warm engine and print its summary.
   [k] then receives the engine, the loaded variants (label = file path,
   in input order) and the summary, and returns the exit code; the CSV
   (-o) and the --explain statistics come last. *)
let with_fleet ~output ~explain paths reliability_path exclude monitored
    strict cache k =
  let* variants = load_diagrams paths in
  let* reliability = load_reliability reliability_path in
  if
    not
      (List.for_all
         (fun (path, diagram) ->
           strict_ok ~strict ~diagram:(path, diagram)
             ~reliability:(reliability_path, reliability) ~exclude ~monitored
             ())
         variants)
  then 1
  else
    let options =
      {
        Fmea.Injection_fmea.default_options with
        exclude;
        monitored_sensors = (match monitored with [] -> None | ids -> Some ids);
      }
    in
    let engine = make_engine cache in
    (* Convert each variant first, so a rejected diagram is named; the
       fleet then reuses the engine's conversions. *)
    let* () =
      List.fold_left
        (fun acc (path, diagram) ->
          Result.bind acc (fun () ->
              Serve.Command.converting ~model:path (fun () ->
                  ignore (Engine.Pipeline.convert engine diagram))))
        (Ok ()) variants
    in
    or_input_error ~model:(String.concat ", " paths) (fun () ->
        let summary =
          Engine.Batch.run_fmea engine ~options variants reliability
        in
        Format.printf "%a@." Engine.Batch.pp_summary summary;
        let code = k engine variants summary in
        Option.iter
          (fun path ->
            Modelio.Csv.write_file path (Engine.Batch.to_csv summary);
            Format.printf "fleet summary written to %s@." path)
          output;
        report_stats explain engine;
        code)

(* fmea and fmeda: [fleet ()] under --batch, else one diagram, here or in
   the daemon. *)
let fmea_or_fmeda ~connect ~batch ~reliability_path ?sm_path ~output ~strict
    ~cache ~explain ~fleet paths request =
  match (connect, batch, paths) with
  | Some _, _, _ :: _ :: _ ->
      Printf.eprintf "error: --connect takes a single DIAGRAM\n";
      2
  | None, true, _ -> fleet ()
  | Some socket, _, [ path ] ->
      remote ~socket
        ~local_only:
          [
            ("-o", output <> None);
            ("--strict", strict);
            ("--cache", cache <> None);
            ("--explain", explain);
            ("--batch", batch);
          ]
        (files ?reliability:reliability_path ?sm:sm_path (Some path))
        request
  | None, false, [ path ] ->
      let engine = make_engine cache in
      let code =
        local ~engine
          (files ?reliability:reliability_path ?sm:sm_path (Some path))
          request
      in
      if code = 0 then report_stats explain engine;
      code
  | _ ->
      Printf.eprintf "error: analysing several DIAGRAMs requires --batch\n";
      2

let fmea_cmd =
  let run diagram_paths reliability_path exclude monitored output route strict
      jobs cache explain batch connect =
    set_jobs jobs;
    fmea_or_fmeda ~connect ~batch ~reliability_path ~output ~strict ~cache
      ~explain diagram_paths
      (Serve.Command.Fmea { route; exclude; monitored; csv = output; strict })
      ~fleet:(fun () ->
        if route <> Decisive.Api.Via_injection then begin
          Printf.eprintf "error: --batch supports only --route injection\n";
          2
        end
        else
          with_fleet ~output ~explain diagram_paths reliability_path exclude
            monitored strict cache (fun _ _ _ -> 0))
  in
  let doc = "Automated FMEA (DECISIVE Step 4a)." in
  Cmd.v
    (Cmd.info "fmea" ~doc)
    Term.(
      const run $ diagrams_arg $ reliability_arg $ exclude_arg $ monitored_arg
      $ output_arg $ route_arg $ strict_arg $ jobs_arg $ cache_arg $ explain_arg
      $ batch_arg $ connect_arg)

(* same fmeda *)

let target_arg =
  Arg.(
    value
    & opt target_conv Ssam.Requirement.ASIL_B
    & info [ "t"; "target" ] ~docv:"LEVEL"
        ~doc:"Target integrity level (QM, ASIL-A..D, SIL1..4).")

let fmeda_cmd =
  let run diagram_paths reliability_path sm_path exclude monitored output
      target strict jobs cache explain batch connect =
    set_jobs jobs;
    fmea_or_fmeda ~connect ~batch ~reliability_path ?sm_path ~output ~strict
      ~cache ~explain diagram_paths
      (Serve.Command.Fmeda { target; exclude; monitored; csv = output; strict })
      ~fleet:(fun () ->
        let* sm_model = load_sm_model sm_path in
        with_fleet ~output ~explain diagram_paths reliability_path exclude
          monitored strict cache (fun engine variants summary ->
            (* Step 4b per variant, still against the shared warm
               engine: search results cache by table fingerprint, so
               variants sharing a design also share the search. *)
            List.fold_left2
              (fun worst (_, diagram) (e : Engine.Batch.fmea_entry) ->
                let refinement =
                  Decisive.Api.refine_design ~engine ~target diagram
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
              0 variants summary.Engine.Batch.f_entries))
  in
  let doc = "Automated FMEDA with safety-mechanism search (Steps 4a + 4b)." in
  Cmd.v
    (Cmd.info "fmeda" ~doc)
    Term.(
      const run $ diagrams_arg $ reliability_arg $ sm_arg $ exclude_arg
      $ monitored_arg $ output_arg $ target_arg $ strict_arg $ jobs_arg
      $ cache_arg $ explain_arg $ batch_arg $ connect_arg)

(* same optimize *)

let optimize_cmd =
  let run diagram_path reliability_path sm_path exclude monitored target strict
      jobs cache explain =
    set_jobs jobs;
    with_diagram_and_models diagram_path reliability_path
      (fun diagram reliability ->
        let* sm_model = load_sm_model sm_path in
        if
          not
            (strict_ok ~strict ~diagram:(diagram_path, diagram)
               ~reliability:(reliability_path, reliability)
               ~sm:(sm_path, sm_model) ~exclude ~monitored ())
        then 1
      else
          let engine = make_engine cache in
          let monitored_sensors =
            match monitored with [] -> None | ids -> Some ids
          in
          or_input_error ~model:diagram_path (fun () ->
            let refinement =
              Decisive.Api.fmeda ~engine ~target ~exclude ?monitored_sensors
                diagram reliability sm_model
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
            0))
  in
  let doc = "Search the cost/SPFM Pareto front of SM deployments." in
  Cmd.v
    (Cmd.info "optimize" ~doc)
    Term.(
      const run $ diagram_arg $ reliability_arg $ sm_arg $ exclude_arg
      $ monitored_arg $ target_arg $ strict_arg $ jobs_arg $ cache_arg
      $ explain_arg)

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
    let* diagram = load_diagram diagram_path in
    let package = Blockdiag.Transform.to_ssam diagram in
    (* Lossless means the saved text reads back as the input design. *)
    let text = Blockdiag.Text_format.print (Blockdiag.Transform.to_diagram package) in
    let lossless =
      match Blockdiag.Text_format.parse text with
      | reread -> Blockdiag.Diagram.equal diagram reread
      | exception Blockdiag.Text_format.Parse_error _ -> false
    in
    Format.printf
      "transformed '%s': %d SSAM elements, round-trip lossless: %b@."
      diagram.Blockdiag.Diagram.diagram_name
      (Ssam.Architecture.count_package_elements package)
      lossless;
    (match out with
    | Some path ->
        Out_channel.with_open_bin path (fun oc -> output_string oc text);
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
  (* [--engine]'s two values are synonyms: nothing to pass on. *)
  let run pos_path from_path reliability_path _engine max_cardinality out dot
      psa connect =
    match (match from_path with Some p -> Some p | None -> pos_path) with
    | None ->
        Printf.eprintf "error: give a DIAGRAM argument or --from FILE\n";
        2
    | Some path ->
        let kind_of p =
          if Filename.check_suffix p ".dot" then `Dot
          else if Filename.check_suffix p ".xml" then `Open_psa
          else `Report
        in
        let exports =
          List.filter_map Fun.id
            [
              Option.map (fun p -> (kind_of p, p)) out;
              Option.map (fun p -> (`Dot, p)) dot;
              Option.map (fun p -> (`Open_psa, p)) psa;
            ]
        in
        dispatch ~connect
          ~local_only:
            [
              ("-o", out <> None);
              ("--dot", dot <> None);
              ("--open-psa", psa <> None);
            ]
          (files ?reliability:reliability_path (Some path))
          (Serve.Command.Fta { max_cardinality; exports })
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
             [ ("auto", `Auto); ("fta", `Open_psa); ("ssam", `Ssam);
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
      & opt (enum Serve.Command.methods) Assess.Mc.Direct
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
  let run path from reliability_path mission_hours trials rel_precision
      sampling seed format check connect =
    match path with
    | None ->
        Printf.eprintf "error: give a MODEL argument\n";
        2
    | Some path -> (
        let from =
          match from with
          | `Auto when Filename.check_suffix path ".xml" -> `Open_psa
          | `Auto -> `Diagram
          | (`Open_psa | `Ssam | `Diagram) as from -> from
        in
        let config =
          {
            Assess.Mc.default with
            Assess.Mc.mission_hours;
            sampling;
            trials;
            rel_precision;
            seed;
          }
        in
        match connect with
        | Some _ when from = `Open_psa ->
            Printf.eprintf
              "error: --connect assesses block diagrams (the daemon lowers \
               them); load Open-PSA trees locally\n";
            2
        | _ ->
            dispatch ~connect
              ~local_only:[ ("--from ssam", from = `Ssam) ]
              (files ?reliability:reliability_path (Some path))
              (Serve.Command.Assess { from; config; check; format }))
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
        let* sm_model = load_sm_model sm_path in
        let monitored_sensors =
          match monitored with [] -> None | ids -> Some ids
        in
        or_input_error ~model:diagram_path (fun () ->
          let process, table, _ =
            Decisive.Api.run_decisive ~name ~target ~exclude
              ?monitored_sensors diagram reliability sm_model
          in
          Format.printf "%a@." Decisive.Process.pp_history process;
          Format.printf "%a@." Fmea.Table.pp table;
          if Decisive.Process.is_complete process then 0 else 1))
  in
  let doc = "Run the full DECISIVE loop (Fig. 1) to a safety concept." in
  Cmd.v
    (Cmd.info "run" ~doc)
    Term.(
      const run $ diagram_arg $ reliability_arg $ sm_arg $ exclude_arg
      $ monitored_arg $ target_arg $ name_arg $ jobs_arg)

(* The nominal value of the voltage or current source [--source id]. *)
let source_value nl id =
  match Circuit.Netlist.find nl id with
  | Some
      {
        Circuit.Element.kind =
          Circuit.Element.Vsource v | Circuit.Element.Isource v;
        _;
      } ->
      Ok v
  | Some e ->
      Error
        (Printf.sprintf "--source %s: a %s, not a voltage or current source" id
           (Circuit.Element.kind_name e.Circuit.Element.kind))
  | None -> Error (Printf.sprintf "--source %s: no such element in the design" id)

(* A library's argument check ([Invalid_argument]) as a failed step. *)
let checked f = match f () with v -> Ok v | exception Invalid_argument m -> Error m

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
    let* diagram = load_diagram diagram_path in
    let* conversion = convert diagram_path diagram in
    let nl = conversion.Blockdiag.To_netlist.netlist in
    let* waveforms =
      match source with
      | None -> Ok []
      | Some id ->
          Result.map
            (fun nominal ->
              [
                ( id,
                  fun t ->
                    nominal +. (amplitude *. sin (2.0 *. Float.pi *. hz *. t))
                );
              ])
            (source_value nl id)
    in
    let* result =
      checked (fun () -> Circuit.Transient.simulate ~waveforms nl ~dt ~duration)
    in
    match result with
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
        0
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
    let* diagram = load_diagram diagram_path in
    let* conversion = convert diagram_path diagram in
    let nl = conversion.Blockdiag.To_netlist.netlist in
    let* _ = source_value nl source in
    let* freqs =
      checked (fun () -> Circuit.Ac.log_space ~from_hz ~to_hz ~points)
    in
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
        0
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
        let* conversion = convert diagram_path diagram in
        let* _ = source_value conversion.Blockdiag.To_netlist.netlist source in
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
        let* sm_model = load_sm_model sm_path in
        let monitored_sensors =
          match monitored with [] -> None | ids -> Some ids
        in
        or_input_error ~model:diagram_path (fun () ->
          let process, fmeda, deployments =
            Decisive.Api.run_decisive ~name ~target ~exclude
              ?monitored_sensors diagram reliability sm_model
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
          if Decisive.Report.verdict input then 0 else 1))
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
    let* old_diagram = load_diagram old_path in
    let* new_diagram = load_diagram new_path in
    let wrap = Blockdiag.Transform.to_ssam_model in
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
    let* diagram = load_diagram diagram_path in
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
    let* json = Serve.Client.one_shot ~socket request in
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
