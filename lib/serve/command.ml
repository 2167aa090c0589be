(* One implementation of each analysis `same` runs, for the CLI and the
   daemon: parse the models, call the library, render the report. *)

type source = Path of string | Text of { name : string; text : string }

type models = {
  diagram : source option;
  reliability : source option;
  sm : source option;
  queries : source list;
}

let name_of = function Path p -> p | Text { name; _ } -> name

let read = function
  | Text { text; _ } -> Ok text
  | Path p -> (
      try Ok (In_channel.with_open_bin p In_channel.input_all)
      with Sys_error m -> Error m)

let parse_diagram src =
  Result.bind (read src) (fun text ->
      try Ok (Blockdiag.Text_format.parse text) with
      | Blockdiag.Text_format.Parse_error { line; message } ->
          Error (Printf.sprintf "%s:%d: %s" (name_of src) line message)
      | Invalid_argument m -> Error m)

(* What the netlist conversion rejects in a diagram that parsed: a
   two-terminal block of an unknown type, a value [Circuit.Element.make]
   refuses, two elements with one id. *)
let converting ~model f =
  match f () with
  | v -> Ok v
  | exception e -> (
      match Blockdiag.To_netlist.rejection e with
      | Some m -> Error (Printf.sprintf "%s: %s" model m)
      | None -> raise e)

(* A reliability or safety-mechanism model: one CSV text, one CSV file or
   a directory of CSV sheets. *)
let parse_sheets of_spreadsheet ~default = function
  | None -> Ok default
  | Some src -> (
      let name = name_of src in
      try
        Ok
          (of_spreadsheet
             (match src with
             | Path p -> Modelio.Spreadsheet.load p
             | Text { text; _ } ->
                 Modelio.Spreadsheet.of_csv ~name (Modelio.Csv.parse text)))
      with
      | Modelio.Csv.Parse_error { line; message } ->
          Error (Printf.sprintf "%s:%d: %s" name line message)
      | Sys_error m -> Error m
      | Reliability.Reliability_model.Format_error m
      | Reliability.Sm_model.Format_error m
      | Invalid_argument m ->
          Error (Printf.sprintf "%s: %s" name m))

let parse_reliability =
  parse_sheets Reliability.Reliability_model.of_spreadsheet
    ~default:Reliability.Reliability_model.table_ii

let parse_sm =
  parse_sheets Reliability.Sm_model.of_spreadsheet
    ~default:Reliability.Sm_model.extended_catalogue

let parse_open_psa src =
  Result.bind (read src) (fun text ->
      try Ok (Fta.Export.parse_open_psa text) with
      | Fta.Export.Format_error m ->
          Error (Printf.sprintf "%s: %s" (name_of src) m)
      | Modelio.Xml.Parse_error { pos; message } ->
          Error
            (Printf.sprintf "%s: at offset %d: %s" (name_of src) pos message))

(* ---------- requests ---------- *)

type request =
  | Fmea of {
      route : Decisive.Api.analysis_route;
      exclude : string list;
      monitored : string list;
      csv : string option;
      strict : bool;
    }
  | Fmeda of {
      target : Ssam.Requirement.integrity_level;
      exclude : string list;
      monitored : string list;
      csv : string option;
      strict : bool;
    }
  | Fta of {
      max_cardinality : int option;
      exports : ([ `Report | `Dot | `Open_psa ] * string) list;
    }
  | Assess of {
      from : [ `Diagram | `Ssam | `Open_psa ];
      config : Assess.Mc.config;
      check : bool;
      format : [ `Text | `Json ];
    }
  | Diagnose of {
      output : string;
      exclude : string list;
      monitored : string list;
      structural : bool;
      format : [ `Text | `Json | `Sarif ];
    }
  | Lint of {
      rules : string list;
      categories : string list;
      severity : Lint.Rule.severity option;
      format : [ `Text | `Json ];
      exclude : string list;
      monitored : string list;
    }

(* Each enumeration's names, on the command line and on the wire. *)
let routes =
  Decisive.Api.
    [
      ("injection", Via_injection); ("ssam", Via_ssam_paths); ("fta", Via_fta);
    ]

let methods =
  Assess.Mc.
    [
      ("direct", Direct);
      ("importance", Importance);
      ("stratified", Stratified);
    ]

let text_json = [ ("text", `Text); ("json", `Json) ]
let text_json_sarif = [ ("text", `Text); ("json", `Json); ("sarif", `Sarif) ]
let booleans = [ ("true", true); ("false", false) ]
let engines = [ ("auto", ()); ("bdd", ()) ]
let name_in table v = fst (List.find (fun (_, x) -> x = v) table)

let analysis = function
  | Fmea _ -> Protocol.Fmea
  | Fmeda _ -> Protocol.Fmeda
  | Fta _ -> Protocol.Fta
  | Assess _ -> Protocol.Assess
  | Diagnose _ -> Protocol.Diagnose
  | Lint _ -> Protocol.Lint

let to_params request =
  let list key = function
    | [] -> []
    | ids -> [ (key, String.concat "," ids) ]
  in
  let opt key show = function None -> [] | Some v -> [ (key, show v) ] in
  let choice key table ~default v =
    if v = default then [] else [ (key, name_in table v) ]
  in
  let float = Printf.sprintf "%.17g" in
  let ids exclude monitored =
    list "exclude" exclude @ list "monitored" monitored
  in
  match request with
  | Fmea { route; exclude; monitored; _ } ->
      ids exclude monitored
      @ choice "route" routes ~default:Decisive.Api.Via_injection route
  | Fmeda { target; exclude; monitored; _ } ->
      ids exclude monitored
      @ [ ("target", Ssam.Requirement.integrity_level_to_string target) ]
  | Fta { max_cardinality; _ } ->
      opt "max_cardinality" string_of_int max_cardinality
  | Assess { config = c; check; format; _ } ->
      [
        ("mission_hours", float c.Assess.Mc.mission_hours);
        ("method", name_in methods c.Assess.Mc.sampling);
        ("seed", string_of_int c.Assess.Mc.seed);
      ]
      @ opt "trials" string_of_int c.Assess.Mc.trials
      @ opt "rel_precision" float c.Assess.Mc.rel_precision
      @ choice "check" booleans ~default:false check
      @ choice "format" text_json ~default:`Text format
  | Diagnose { output; exclude; monitored; structural; format } ->
      (("output", output) :: ids exclude monitored)
      @ choice "structural" booleans ~default:false structural
      @ choice "format" text_json_sarif ~default:`Text format
  | Lint { rules; categories; severity; format; exclude; monitored } ->
      list "rules" rules @ list "category" categories
      @ opt "severity" Lint.Rule.severity_to_string severity
      @ choice "format" text_json ~default:`Text format
      @ ids exclude monitored

let of_params analysis params =
  let ( let* ) = Result.bind in
  let param key =
    match List.assoc_opt key params with None | Some "" -> None | v -> v
  in
  let list key =
    match param key with
    | None -> []
    | Some s ->
        String.split_on_char ',' s |> List.map String.trim
        |> List.filter (fun x -> x <> "")
  in
  let value key parse ~default ~error =
    match param key with
    | None -> Ok default
    | Some v -> Option.to_result ~none:(error v) (parse v)
  in
  let number key what parse =
    value key parse ~error:(Printf.sprintf "%s: expected %s, got %S" key what)
  in
  let int key = number key "an integer" int_of_string_opt in
  let float key = number key "a number" float_of_string_opt in
  let some parse v = Option.map Option.some (parse v) in
  let choice key table =
    let expected =
      match List.rev_map fst table with
      | last :: (_ :: _ as rest) ->
          String.concat ", " (List.rev rest) ^ " or " ^ last
      | names -> String.concat "" names
    in
    value key
      (fun v -> List.assoc_opt v table)
      ~error:(fun v ->
        Printf.sprintf "unknown %s %S (expected %s)" key v expected)
  in
  let exclude = list "exclude" and monitored = list "monitored" in
  match analysis with
  | Protocol.Fmea ->
      let* route = choice "route" routes ~default:Decisive.Api.Via_injection in
      Ok (Fmea { route; exclude; monitored; csv = None; strict = false })
  | Protocol.Fmeda ->
      let* target =
        value "target" Ssam.Requirement.integrity_level_of_string
          ~default:Ssam.Requirement.ASIL_B
          ~error:(Printf.sprintf "unknown integrity level %S")
      in
      Ok (Fmeda { target; exclude; monitored; csv = None; strict = false })
  | Protocol.Fta ->
      let* () = choice "engine" engines ~default:() in
      let* max_cardinality =
        number "max_cardinality" "an integer" (some int_of_string_opt)
          ~default:None
      in
      Ok (Fta { max_cardinality; exports = [] })
  | Protocol.Assess ->
      let d = Assess.Mc.default in
      let* mission_hours = float "mission_hours" ~default:d.mission_hours in
      let* trials =
        number "trials" "an integer" (some int_of_string_opt) ~default:None
      in
      let* rel_precision =
        number "rel_precision" "a number" (some float_of_string_opt)
          ~default:None
      in
      let* seed = int "seed" ~default:d.seed in
      let* sampling = choice "method" methods ~default:d.sampling in
      let* check = choice "check" booleans ~default:false in
      let* format = choice "format" text_json ~default:`Text in
      let config =
        { d with mission_hours; trials; rel_precision; seed; sampling }
      in
      Ok (Assess { from = `Diagram; config; check; format })
  | Protocol.Diagnose -> (
      let* structural = choice "structural" booleans ~default:false in
      let* format = choice "format" text_json_sarif ~default:`Text in
      match param "output" with
      | None ->
          Error "diagnose needs an \"output\" param (the observation point)"
      | Some output ->
          Ok (Diagnose { output; exclude; monitored; structural; format }))
  | Protocol.Lint ->
      let severities =
        List.map
          (fun s -> (Lint.Rule.severity_to_string s, Some s))
          Lint.Rule.[ Error; Warning; Info ]
      in
      let* severity = choice "severity" severities ~default:None in
      let* format = choice "format" text_json ~default:`Text in
      let rules = list "rules" and categories = list "category" in
      Ok (Lint { rules; categories; severity; format; exclude; monitored })

(* ---------- running ---------- *)

type reply = { out : string; err : string; code : int }

(* An analysis that cannot go on: its exit code and the text that ends
   its stderr. *)
exception Fail of int * string

let fail ?(code = 1) fmt =
  Printf.ksprintf (fun m -> raise (Fail (code, "error: " ^ m ^ "\n"))) fmt

let get = function Ok v -> v | Error m -> fail "%s" m

let table_report table =
  Format.asprintf "%a@.%a@." Fmea.Table.pp table Fmea.Metrics.pp_breakdown
    (Fmea.Metrics.compute table)

let json j = Modelio.Json.to_string ~indent:2 j ^ "\n"

let strict_findings ?diagram ?reliability ?sm ~exclude ~monitored () =
  let diagnostics =
    Lint.Driver.run
      {
        Lint.Input.empty with
        Lint.Input.diagram;
        reliability;
        sm;
        exclude;
        monitored;
      }
  in
  if Lint.Driver.has_errors diagnostics then
    Some
      (Lint.Driver.to_text diagnostics
     ^ "error: lint errors in the inputs (--strict)\n")
  else None

let assess_text ~wall_clock (r : Assess.Mc.report) =
  let buf = Buffer.create 512 in
  let bpf fmt = Printf.bprintf buf fmt in
  bpf "top event (%s, %g h mission): %.6e +/- %.1e (99%% CI)\n"
    (Assess.Mc.sampling_to_string r.sampling)
    r.mission_hours r.top_probability r.halfwidth;
  if wall_clock then
    bpf "trials: %d  (%.1f Mtrials/s, %.3f s, %d instructions)\n" r.trials
      (r.trials_per_sec /. 1e6) r.elapsed_s r.instrs
  else bpf "trials: %d  (%d instructions)\n" r.trials r.instrs;
  (match (r.exact, r.exact_delta) with
  | Some exact, Some delta ->
      bpf "BDD-exact cross-check: %.6e  delta %.1e  %s\n" exact delta
        (if delta <= r.halfwidth then "(inside CI)" else "(OUTSIDE CI)")
  | _ -> ());
  if r.events <> [] then begin
    bpf "event importance (Fussell-Vesely style):\n";
    List.iter
      (fun (e : Assess.Mc.event_report) ->
        bpf "  %-32s p=%.3e  importance %.3f\n" e.event_id e.probability
          e.importance)
      r.events
  end;
  Buffer.contents buf

let assess_json ~wall_clock (r : Assess.Mc.report) =
  let open Modelio.Json in
  let opt = function Some x -> Number x | None -> Null in
  let event (e : Assess.Mc.event_report) =
    Object
      [
        ("id", String e.event_id);
        ("probability", Number e.probability);
        ("importance", Number e.importance);
      ]
  in
  Object
    (List.filter
       (fun (key, _) ->
         wall_clock || not (List.mem key [ "elapsed_s"; "trials_per_sec" ]))
       [
         ("top_probability", Number r.top_probability);
         ("ci_halfwidth", Number r.halfwidth);
         ("trials", Number (float_of_int r.trials));
         ("elapsed_s", Number r.elapsed_s);
         ("trials_per_sec", Number r.trials_per_sec);
         ("sampling", String (Assess.Mc.sampling_to_string r.sampling));
         ("mission_hours", Number r.mission_hours);
         ("instructions", Number (float_of_int r.instrs));
         ("exact", opt r.exact);
         ("exact_delta", opt r.exact_delta);
         ("events", List (List.map event r.events));
       ])

let execute ?engine ~wall_clock ~out ~err models request =
  let print = Buffer.add_string out in
  let source () =
    match models.diagram with Some s -> s | None -> fail ~code:2 "no DIAGRAM"
  in
  let diagram () = get (parse_diagram (source ())) in
  let reliability () = get (parse_reliability models.reliability) in
  (* the diagram, then the reliability model: the order errors show in *)
  let loaded () =
    let d = diagram () in
    (d, reliability ())
  in
  let label = Option.map name_of in
  let strict_gate strict ?sm d r ~exclude ~monitored =
    if strict then
      match
        strict_findings ~diagram:(name_of (source ()), d)
          ~reliability:(label models.reliability, r)
          ?sm:(Option.map (fun s -> (label models.sm, s)) sm)
          ~exclude ~monitored ()
      with
      | Some findings -> raise (Fail (1, findings))
      | None -> ()
  in
  let sensors = function [] -> None | l -> Some l in
  let analysed f =
    try get (converting ~model:(name_of (source ())) f) with
    | Fmea.Injection_fmea.Golden_run_failed m ->
        fail "golden simulation failed: %s" m
    | Fta.From_ssam.No_paths c -> fail "no input-output paths through %s" c
  in
  let export_csv csv table =
    Option.iter
      (fun path ->
        Decisive.Api.export_fmeda ~path table;
        Printf.bprintf out "FMEDA written to %s\n" path)
      csv
  in
  match request with
  | Fmea { route; exclude; monitored; csv; strict } ->
      let d, r = loaded () in
      strict_gate strict d r ~exclude ~monitored;
      let table =
        analysed (fun () ->
            Decisive.Api.analyse ?engine ~route ~exclude
              ?monitored_sensors:(sensors monitored) d r)
      in
      print (table_report table);
      export_csv csv table;
      0
  | Fmeda { target; exclude; monitored; csv; strict } ->
      let d, r = loaded () in
      let sm = get (parse_sm models.sm) in
      strict_gate strict ~sm d r ~exclude ~monitored;
      let refinement =
        analysed (fun () ->
            Decisive.Api.fmeda ?engine ~target ~exclude
              ?monitored_sensors:(sensors monitored) d r sm)
      in
      print (table_report refinement.Decisive.Api.refined_table);
      export_csv csv refinement.Decisive.Api.refined_table;
      print (Decisive.Api.refinement_text ~target refinement);
      0
  | Fta { max_cardinality; exports } ->
      let d, reliability = loaded () in
      let tree, route = get (Fta.From_ssam.lower_diagram ~reliability d) in
      let report = Fta.Report.text ?max_cardinality ~route tree in
      print report;
      let name = d.Blockdiag.Diagram.diagram_name in
      List.iter
        (fun (kind, path) ->
          match kind with
          | `Dot ->
              Fta.Export.save_dot ~path ~name tree;
              Printf.bprintf out "dot written to %s\n" path
          | `Open_psa ->
              Fta.Export.save_open_psa ~path ~model_name:name tree;
              Printf.bprintf out "Open-PSA written to %s\n" path
          | `Report ->
              Out_channel.with_open_text path (fun oc ->
                  output_string oc report);
              Printf.bprintf out "report written to %s\n" path)
        exports;
      0
  | Assess { from; config; check; format } -> (
      let tree =
        match from with
        | `Open_psa -> get (parse_open_psa (source ()))
        | `Diagram ->
            let d, reliability = loaded () in
            fst (get (Fta.From_ssam.lower_diagram ~reliability d))
        | `Ssam -> (
            let d, reliability = loaded () in
            try
              Fta.From_ssam.generate
                (Decisive.Api.functional_root ~reliability d)
            with Fta.From_ssam.No_paths c ->
              fail "no input-output paths through %s" c)
      in
      let r =
        try Assess.Mc.run config tree with Invalid_argument m -> fail "%s" m
      in
      print
        (match format with
        | `Text -> assess_text ~wall_clock r
        | `Json -> json (assess_json ~wall_clock r));
      match r.Assess.Mc.exact_delta with
      | _ when not check -> 0
      | Some delta when delta <= r.Assess.Mc.halfwidth -> 0
      | Some _ ->
          fail "estimate outside the 99%% CI of the BDD-exact probability"
      | None ->
          fail "--check needs the BDD-exact cross-check (tree too large)")
  | Diagnose { output; exclude; monitored; structural; format } -> (
      let d, reliability = loaded () in
      let model = Dataflow.Model.of_diagram ~monitored ~reliability d in
      let verify =
        if structural then None
        else
          let options = { Fmea.Injection_fmea.default_options with exclude } in
          match
            analysed (fun () ->
                Dataflow.Diagnose.circuit_verifier ~options ~reliability
                  ~output d)
          with
          | Ok v -> Some v
          | Error why ->
              Printf.bprintf err
                "warning: numeric verification unavailable (%s); reporting \
                 structural candidates\n"
                why;
              None
      in
      match Dataflow.Diagnose.diagnose ?verify model ~output with
      | Error m -> fail ~code:2 "%s" m
      | Ok report ->
          print
            (match format with
            | `Text -> Dataflow.Diagnose.to_text report
            | `Json -> json (Dataflow.Diagnose.to_json report)
            | `Sarif -> json (Dataflow.Diagnose.to_sarif report));
          if report.Dataflow.Diagnose.agree then 0 else 1)
  | Lint { rules; categories; severity; format; exclude; monitored } ->
      List.iter
        (fun id ->
          if Lint.Driver.find_rule id = None then
            fail ~code:2 "unknown rule id '%s' (see same lint --list)" id)
        rules;
      let categories =
        List.map
          (fun c ->
            match Lint.Rule.category_of_string c with
            | Some c -> c
            | None ->
                fail ~code:2
                  "unknown category '%s' (ssam, blk, rel, qry, dfa or fta)" c)
          categories
      in
      let diagram =
        Option.map (fun s -> (name_of s, get (parse_diagram s))) models.diagram
      in
      (* A diagram always lints against a reliability and SM view: the
         built-in defaults when none was given. *)
      let with_default src parse =
        if Option.is_none src && Option.is_none diagram then None
        else Some (label src, get (parse src))
      in
      let reliability = with_default models.reliability parse_reliability in
      let sm = with_default models.sm parse_sm in
      let queries =
        List.map (fun s -> (name_of s, get (read s))) models.queries
      in
      if
        Option.(is_none diagram && is_none reliability && is_none sm)
        && queries = []
      then
        fail ~code:2 "nothing to lint (give a DIAGRAM, -r, -s or -q)";
      let diagnostics =
        Lint.Driver.run ~rules ~categories ?min_severity:severity
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
      print
        (match format with
        | `Text -> Lint.Driver.to_text diagnostics
        | `Json -> json (Lint.Driver.to_json diagnostics));
      if Lint.Driver.has_errors diagnostics then 1 else 0

let run ?engine ?(wall_clock = false) models request =
  let out = Buffer.create 4096 and err = Buffer.create 256 in
  let code =
    try execute ?engine ~wall_clock ~out ~err models request
    with Fail (code, text) ->
      Buffer.add_string err text;
      code
  in
  { out = Buffer.contents out; err = Buffer.contents err; code }

(* The daemon's models: inline texts named "diagram", "reliability" and
   "safety-mechanisms", or by the [name], [rname] and [sname] parameters
   (lint's file names); a [query] parameter is the one query, named by
   [qname]. *)
let wire_models (a : Protocol.analyse) =
  let param key =
    match List.assoc_opt key a.Protocol.a_params with
    | Some "" -> None
    | v -> v
  in
  let inline key default =
    let name = Option.value (param key) ~default in
    Option.map (fun text -> Text { name; text })
  in
  {
    diagram = inline "name" "diagram" (Some a.Protocol.a_diagram);
    reliability = inline "rname" "reliability" a.Protocol.a_reliability;
    sm = inline "sname" "safety-mechanisms" a.Protocol.a_sm;
    queries = Option.to_list (inline "qname" "query" (param "query"));
  }

let analyse ~engine (a : Protocol.analyse) =
  match of_params a.Protocol.a_analysis a.Protocol.a_params with
  | Error m -> ("error: " ^ m ^ "\n", 1)
  | Ok request ->
      let r = run ~engine (wire_models a) request in
      (r.err ^ r.out, r.code)

let to_analyse models request =
  let ( let* ) = Result.bind in
  let inline = function
    | None -> Ok None
    | Some s -> Result.map Option.some (read s)
  in
  let* a_diagram = read (Option.get models.diagram) in
  let* a_reliability = inline models.reliability in
  let* a_sm = inline models.sm in
  let* labels =
    match request with
    | Lint _ ->
        let label key =
          Option.fold ~none:[] ~some:(fun s -> [ (key, name_of s) ])
        in
        let query = List.nth_opt models.queries 0 in
        let* text = inline query in
        Ok
          (label "name" models.diagram
          @ label "rname" models.reliability
          @ label "sname" models.sm @ label "qname" query
          @ Option.fold ~none:[] ~some:(fun q -> [ ("query", q) ]) text)
    | _ -> Ok []
  in
  Ok
    {
      Protocol.a_analysis = analysis request;
      a_diagram;
      a_reliability;
      a_sm;
      a_params = to_params request @ labels;
    }
