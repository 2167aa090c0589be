let catalogue =
  Ssam_pack.rules @ Blockdiag_pack.rules @ Reliability_pack.rules
  @ Query_pack.rules @ Dataflow_pack.rules @ Fta_pack.rules

let find_rule id =
  let id = String.uppercase_ascii id in
  List.find_opt (fun (r : Rule.t) -> String.uppercase_ascii r.Rule.id = id)
    catalogue

(* Derive the SSAM model the analysis commands would work on when the
   caller gave a diagram but no model of its own; [true] when it did. *)
let effective_model (input : Input.t) =
  match (input.Input.model, input.Input.diagram) with
  | Some _, _ | None, None -> (input, false)
  | None, Some (_, diagram) ->
      let model = Blockdiag.Transform.to_ssam_model diagram in
      let model =
        match input.Input.reliability with
        | None -> model
        | Some (_, rel) ->
            {
              model with
              Ssam.Model.component_packages =
                List.map
                  (Blockdiag.Transform.aggregate_reliability rel)
                  model.Ssam.Model.component_packages;
            }
      in
      ({ input with Input.model = Some model }, true)

let run ?jobs ?(rules = []) ?(categories = []) ?min_severity input =
  let input, derived = effective_model input in
  let packs =
    [
      Ssam_pack.run;
      Blockdiag_pack.run;
      Reliability_pack.run;
      Query_pack.run;
      Dataflow_pack.run;
      Fta_pack.run;
    ]
  in
  let all =
    List.concat
      (Exec.scheduled_map ?jobs ~key:"lint.pack" (fun pack -> pack input)
         packs)
  in
  (* A derived model repeats the diagram's ids, so its SSAM001 findings
     (the block and each of its IO nodes) only echo BLK003. *)
  let all =
    if derived then
      List.filter (fun (d : Rule.diagnostic) -> d.Rule.rule_id <> "SSAM001") all
    else all
  in
  let wanted = List.map String.uppercase_ascii rules in
  let all =
    if wanted = [] then all
    else
      List.filter
        (fun (d : Rule.diagnostic) ->
          List.mem (String.uppercase_ascii d.Rule.rule_id) wanted)
        all
  in
  let all =
    if categories = [] then all
    else
      List.filter
        (fun (d : Rule.diagnostic) -> List.mem d.Rule.d_category categories)
        all
  in
  let all =
    match min_severity with
    | None -> all
    | Some s ->
        List.filter
          (fun (d : Rule.diagnostic) ->
            Rule.severity_rank d.Rule.d_severity >= Rule.severity_rank s)
          all
  in
  List.stable_sort Rule.compare_severity all

let has_errors ds =
  List.exists (fun (d : Rule.diagnostic) -> d.Rule.d_severity = Rule.Error) ds

let to_text ds =
  let buf = Buffer.create 256 in
  List.iter
    (fun d -> Buffer.add_string buf (Format.asprintf "%a@." Rule.pp_text d))
    ds;
  let count sev =
    List.length
      (List.filter (fun (d : Rule.diagnostic) -> d.Rule.d_severity = sev) ds)
  in
  let plural n what = Printf.sprintf "%d %s%s" n what (if n = 1 then "" else "s") in
  (match (count Rule.Error, count Rule.Warning, count Rule.Info) with
  | 0, 0, 0 -> Buffer.add_string buf "no findings\n"
  | e, w, i ->
      let parts =
        List.filter_map
          (fun x -> x)
          [
            (if e > 0 then Some (plural e "error") else None);
            (if w > 0 then Some (plural w "warning") else None);
            (if i > 0 then Some (plural i "info") else None);
          ]
      in
      Buffer.add_string buf (String.concat ", " parts);
      Buffer.add_char buf '\n');
  Buffer.contents buf

let to_json ds =
  let open Modelio.Json in
  let rule_json (r : Rule.t) =
    Object
      [
        ("id", String r.Rule.id);
        ("name", String r.Rule.id);
        ("shortDescription", Object [ ("text", String r.Rule.title) ]);
        ("helpUri", String ("DESIGN.md#" ^ String.lowercase_ascii r.Rule.id));
        ( "defaultConfiguration",
          Object [ ("level", String (Rule.sarif_level r.Rule.severity)) ] );
        ( "properties",
          Object [ ("category", String (Rule.category_to_string r.Rule.category)) ]
        );
      ]
  in
  let result_json (d : Rule.diagnostic) =
    let location =
      let physical =
        match d.Rule.file with
        | None -> []
        | Some f ->
            let region =
              match d.Rule.span with
              | None -> []
              | Some { Rule.line; col } ->
                  [
                    ( "region",
                      Object
                        [
                          ("startLine", Number (float_of_int line));
                          ("startColumn", Number (float_of_int col));
                        ] );
                  ]
            in
            [
              ( "physicalLocation",
                Object
                  (("artifactLocation", Object [ ("uri", String f) ]) :: region)
              );
            ]
      in
      let logical =
        match d.Rule.element with
        | None -> []
        | Some e ->
            [ ("logicalLocations", List [ Object [ ("name", String e) ] ]) ]
      in
      match physical @ logical with
      | [] -> []
      | fields -> [ ("locations", List [ Object fields ]) ]
    in
    let message =
      match d.Rule.hint with
      | None -> [ ("text", String d.Rule.message) ]
      | Some h ->
          [ ("text", String d.Rule.message); ("markdown", String h) ]
    in
    Object
      ([
         ("ruleId", String d.Rule.rule_id);
         ("level", String (Rule.sarif_level d.Rule.d_severity));
         ("message", Object message);
       ]
      @ location)
  in
  Object
    [
      ("version", String "2.1.0");
      ( "runs",
        List
          [
            Object
              [
                ( "tool",
                  Object
                    [
                      ( "driver",
                        Object
                          [
                            ("name", String "same lint");
                            ("rules", List (List.map rule_json catalogue));
                          ] );
                    ] );
                ("results", List (List.map result_json ds));
              ];
          ] );
    ]
