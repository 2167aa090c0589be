(* One handler per analysis kind, each mirroring its `same` subcommand:
   same inputs, same library calls, same rendered report — minus
   anything nondeterministic (timings), so responses are bit-identical
   across SAME_JOBS and safely content-addressed. *)

let param params k = List.assoc_opt k params

let list_param params k =
  match param params k with
  | None -> []
  | Some s ->
      String.split_on_char ',' s
      |> List.map String.trim
      |> List.filter (fun x -> x <> "")

let parse_diagram text =
  try Ok (Blockdiag.Text_format.parse text) with
  | Blockdiag.Text_format.Parse_error { line; message } ->
      Error (Printf.sprintf "diagram:%d: %s" line message)
  | Invalid_argument m -> Error m

let parse_reliability = function
  | None -> Ok Reliability.Reliability_model.table_ii
  | Some text -> (
      try
        Ok
          (Reliability.Reliability_model.of_spreadsheet
             (Modelio.Spreadsheet.of_csv ~name:"reliability"
                (Modelio.Csv.parse text)))
      with
      | Reliability.Reliability_model.Format_error m ->
          Error (Printf.sprintf "reliability: %s" m)
      | Modelio.Csv.Parse_error { line; message } ->
          Error (Printf.sprintf "reliability:%d: %s" line message)
      | Invalid_argument m -> Error (Printf.sprintf "reliability: %s" m))

let parse_sm = function
  | None -> Ok Reliability.Sm_model.extended_catalogue
  | Some text -> (
      try
        Ok
          (Reliability.Sm_model.of_spreadsheet
             (Modelio.Spreadsheet.of_csv ~name:"safety-mechanisms"
                (Modelio.Csv.parse text)))
      with
      | Reliability.Sm_model.Format_error m ->
          Error (Printf.sprintf "safety-mechanisms: %s" m)
      | Modelio.Csv.Parse_error { line; message } ->
          Error (Printf.sprintf "safety-mechanisms:%d: %s" line message)
      | Invalid_argument m -> Error (Printf.sprintf "safety-mechanisms: %s" m))

let injection_options params =
  {
    Fmea.Injection_fmea.default_options with
    exclude = list_param params "exclude";
    monitored_sensors =
      (match list_param params "monitored" with [] -> None | ids -> Some ids);
  }

let err fmt = Printf.ksprintf (fun m -> ("error: " ^ m ^ "\n", 1)) fmt

let ( let* ) r k = match r with Error m -> err "%s" m | Ok v -> k v

(* ---------- fmea ---------- *)

let table_report table =
  Format.asprintf "%a@.%a@." Fmea.Table.pp table Fmea.Metrics.pp_breakdown
    (Fmea.Metrics.compute table)

let run_fmea ~engine a =
  let* diagram = parse_diagram a.Protocol.a_diagram in
  let* reliability = parse_reliability a.Protocol.a_reliability in
  let params = a.Protocol.a_params in
  let exclude = list_param params "exclude" in
  let monitored_sensors =
    match list_param params "monitored" with [] -> None | ids -> Some ids
  in
  match
    Decisive.Api.analyse ~engine ~exclude ?monitored_sensors diagram
      reliability
  with
  | table -> (table_report table, 0)
  | exception Fmea.Injection_fmea.Golden_run_failed m ->
      err "golden simulation failed: %s" m

(* ---------- fmeda ---------- *)

let target_of params =
  match param params "target" with
  | None -> Ok Ssam.Requirement.ASIL_B
  | Some s -> (
      match Ssam.Requirement.integrity_level_of_string s with
      | Some l -> Ok l
      | None -> Error (Printf.sprintf "unknown integrity level %S" s))

let run_fmeda ~engine a =
  let* diagram = parse_diagram a.Protocol.a_diagram in
  let* reliability = parse_reliability a.Protocol.a_reliability in
  let* sm_model = parse_sm a.Protocol.a_sm in
  let* target = target_of a.Protocol.a_params in
  let params = a.Protocol.a_params in
  let exclude = list_param params "exclude" in
  let monitored_sensors =
    match list_param params "monitored" with [] -> None | ids -> Some ids
  in
  match
    Decisive.Api.analyse ~engine ~exclude ?monitored_sensors diagram
      reliability
  with
  | exception Fmea.Injection_fmea.Golden_run_failed m ->
      err "golden simulation failed: %s" m
  | table ->
      let conversion = Blockdiag.To_netlist.convert diagram in
      let refinement =
        Decisive.Api.refine ~engine ~target
          ~component_types:conversion.Blockdiag.To_netlist.block_types table
          sm_model
      in
      ( table_report refinement.Decisive.Api.refined_table
        ^ Decisive.Api.refinement_text ~target refinement,
        0 )

(* ---------- fta ---------- *)

let run_fta a =
  let* diagram = parse_diagram a.Protocol.a_diagram in
  let* reliability = parse_reliability a.Protocol.a_reliability in
  let params = a.Protocol.a_params in
  let* () =
    match param params "engine" with
    | None | Some ("" | "auto" | "bdd") -> Ok ()
    | Some other ->
        Error (Printf.sprintf "unknown engine %S (expected auto or bdd)" other)
  in
  let max_cardinality =
    Option.bind (param params "max_cardinality") int_of_string_opt
  in
  let* tree, route = Fta.From_ssam.lower_diagram ~reliability diagram in
  (Fta.Report.text ?max_cardinality ~route tree, 0)

(* ---------- assess ---------- *)

(* The CLI's text report minus its wall-clock lines (Mtrials/s, elapsed):
   a daemon response must be bit-identical for a fixed seed whatever the
   machine load, and the cache must not freeze a stale timing into every
   future answer. *)
let run_assess a =
  let* diagram = parse_diagram a.Protocol.a_diagram in
  let* reliability = parse_reliability a.Protocol.a_reliability in
  let params = a.Protocol.a_params in
  let* tree, _ = Fta.From_ssam.lower_diagram ~reliability diagram in
  let config =
    {
      Assess.Mc.default with
      Assess.Mc.mission_hours =
        (match Option.bind (param params "mission_hours") float_of_string_opt with
        | Some h -> h
        | None -> Assess.Mc.default.Assess.Mc.mission_hours);
      trials = Option.bind (param params "trials") int_of_string_opt;
      rel_precision =
        Option.bind (param params "rel_precision") float_of_string_opt;
      seed =
        (match Option.bind (param params "seed") int_of_string_opt with
        | Some s -> s
        | None -> Assess.Mc.default.Assess.Mc.seed);
      sampling =
        (match param params "method" with
        | Some "importance" -> Assess.Mc.Importance
        | Some "stratified" -> Assess.Mc.Stratified
        | _ -> Assess.Mc.Direct);
    }
  in
  match Assess.Mc.run config tree with
  | exception Invalid_argument m -> err "%s" m
  | r ->
      let buf = Buffer.create 512 in
      let bpf fmt = Printf.bprintf buf fmt in
      bpf "top event (%s, %g h mission): %.6e +/- %.1e (99%% CI)\n"
        (Assess.Mc.sampling_to_string r.Assess.Mc.sampling)
        r.Assess.Mc.mission_hours r.Assess.Mc.top_probability
        r.Assess.Mc.halfwidth;
      bpf "trials: %d  (%d instructions)\n" r.Assess.Mc.trials
        r.Assess.Mc.instrs;
      (match (r.Assess.Mc.exact, r.Assess.Mc.exact_delta) with
      | Some exact, Some delta ->
          bpf "BDD-exact cross-check: %.6e  delta %.1e  %s\n" exact delta
            (if delta <= r.Assess.Mc.halfwidth then "(inside CI)"
             else "(OUTSIDE CI)")
      | _ -> ());
      let exit_code =
        if param params "check" = Some "true" then
          match r.Assess.Mc.exact_delta with
          | Some delta when delta <= r.Assess.Mc.halfwidth -> 0
          | Some _ ->
              bpf
                "error: estimate outside the 99%% CI of the BDD-exact \
                 probability\n";
              1
          | None ->
              bpf
                "error: check needs the BDD-exact cross-check (tree too \
                 large)\n";
              1
        else 0
      in
      (Buffer.contents buf, exit_code)

(* ---------- diagnose ---------- *)

let run_diagnose a =
  let* diagram = parse_diagram a.Protocol.a_diagram in
  let* reliability = parse_reliability a.Protocol.a_reliability in
  let params = a.Protocol.a_params in
  match param params "output" with
  | None -> err "diagnose needs an \"output\" param (the observation point)"
  | Some output -> (
      let monitored = list_param params "monitored" in
      let exclude = list_param params "exclude" in
      let model = Dataflow.Model.of_diagram ~monitored ~reliability diagram in
      let structural = param params "structural" = Some "true" in
      let warn = Buffer.create 64 in
      let verify =
        if structural then None
        else
          let options = { Fmea.Injection_fmea.default_options with exclude } in
          match
            Dataflow.Diagnose.circuit_verifier ~options ~reliability ~output
              diagram
          with
          | Ok v -> Some v
          | Error why ->
              Printf.bprintf warn
                "warning: numeric verification unavailable (%s); reporting \
                 structural candidates\n"
                why;
              None
      in
      match Dataflow.Diagnose.diagnose ?verify model ~output with
      | Error m -> err "%s" m
      | Ok report ->
          let body =
            match param params "format" with
            | Some "json" ->
                Modelio.Json.to_string ~indent:2
                  (Dataflow.Diagnose.to_json report)
                ^ "\n"
            | Some "sarif" ->
                Modelio.Json.to_string ~indent:2
                  (Dataflow.Diagnose.to_sarif report)
                ^ "\n"
            | _ -> Dataflow.Diagnose.to_text report
          in
          ( Buffer.contents warn ^ body,
            if report.Dataflow.Diagnose.agree then 0 else 1 ))

(* ---------- lint ---------- *)

let run_lint a =
  let* diagram = parse_diagram a.Protocol.a_diagram in
  (* Mirror `same lint DIAGRAM`: a diagram always lints against a
     reliability and SM view, falling back to the built-in Table II /
     extended catalogue when the client sent none — exactly as the CLI
     does when -r / -s are omitted. *)
  let* reliability = parse_reliability a.Protocol.a_reliability in
  let* sm = parse_sm a.Protocol.a_sm in
  let params = a.Protocol.a_params in
  let label key default =
    match param params key with Some n when n <> "" -> n | _ -> default
  in
  let opt_label key default source =
    Option.map (fun _ -> label key default) source
  in
  let queries =
    match param params "query" with
    | None -> []
    | Some src -> [ (label "qname" "query", src) ]
  in
  let input =
    {
      Lint.Input.empty with
      Lint.Input.diagram = Some (label "name" "diagram", diagram);
      reliability =
        Some
          (opt_label "rname" "reliability" a.Protocol.a_reliability,
           reliability);
      sm = Some (opt_label "sname" "safety-mechanisms" a.Protocol.a_sm, sm);
      queries;
      exclude = list_param params "exclude";
      monitored = list_param params "monitored";
    }
  in
  let min_severity =
    Option.bind (param params "severity") Lint.Rule.severity_of_string
  in
  let diagnostics = Lint.Driver.run ?min_severity input in
  let body =
    match param params "format" with
    | Some "json" ->
        Modelio.Json.to_string ~indent:2 (Lint.Driver.to_json diagnostics)
        ^ "\n"
    | _ -> Lint.Driver.to_text diagnostics
  in
  (body, if Lint.Driver.has_errors diagnostics then 1 else 0)

let analyse ~engine (a : Protocol.analyse) =
  match a.Protocol.a_analysis with
  | Protocol.Fmea -> run_fmea ~engine a
  | Protocol.Fmeda -> run_fmeda ~engine a
  | Protocol.Fta -> run_fta a
  | Protocol.Assess -> run_assess a
  | Protocol.Diagnose -> run_diagnose a
  | Protocol.Lint -> run_lint a
