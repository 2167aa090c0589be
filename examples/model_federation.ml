(* Model federation: pulling data out of heterogeneous external models
   with SSAM ExternalReferences and executable extraction queries
   (Sec. IV-B, REQ2).

   A component's FIT lives in an "Excel" reliability sheet; its design
   parameters live in a block-diagram file; hazard metadata lives in
   JSON.  One SSAM model element carries an ExternalReference to each,
   and SAME executes the attached queries to federate the values.

   Run with: dune exec examples/model_federation.exe *)

let write_fixtures dir =
  (* Table II as a CSV "spreadsheet". *)
  Modelio.Csv.write_file (Filename.concat dir "reliability.csv")
    [
      [ "Component"; "FIT"; "Failure_Mode"; "Distribution" ];
      [ "Diode"; "10"; "Open"; "30%" ];
      [ ""; ""; "Short"; "70%" ];
      [ "Inductor"; "15"; "Open"; "30%" ];
      [ ""; ""; "Short"; "70%" ];
      [ "MC"; "300"; "RAM Failure"; "100%" ];
    ];
  (* The design as a block-diagram file. *)
  Blockdiag.Text_format.write_file (Filename.concat dir "design.bd")
    Fixtures.Case_study.power_supply_diagram;
  (* Hazard metadata as JSON. *)
  Modelio.Json.write_file (Filename.concat dir "hazards.json")
    (Modelio.Json.Object
       [
         ( "hazards",
           Modelio.Json.List
             [
               Modelio.Json.Object
                 [
                   ("id", Modelio.Json.String "H1");
                   ( "text",
                     Modelio.Json.String "The power supply fails unexpectedly" );
                   ("severity", Modelio.Json.String "S3");
                   ("asil", Modelio.Json.String "ASIL-B");
                 ];
             ] );
       ])

let run_extraction (r : Ssam.Base.external_reference) =
  let model =
    Modelio.Driver.resolve ~model_type:r.Ssam.Base.model_type
      ~location:r.Ssam.Base.location ~metadata:r.Ssam.Base.metadata
  in
  match r.Ssam.Base.validation with
  | None -> Modelio.Mvalue.Null
  | Some c ->
      let env = Query.Interp.env_of_models [ ("Model", model) ] in
      Query.Interp.run_string env c.Ssam.Base.expression

let () =
  let dir = Filename.temp_file "federation" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  write_fixtures dir;

  (* The SSAM element for D1, tracing to three external models. *)
  let d1_meta =
    Ssam.Base.meta ~name:"D1"
      ~external_references:
        [
          Ssam.Base.external_reference
            ~validation:
              (Ssam.Base.constraint_ ~id:"extract-fit"
                 "Model.rows.selectOne(r | r.component = 'Diode').fit.toNumber()")
            ~location:(Filename.concat dir "reliability.csv")
            ~model_type:"csv" ();
          Ssam.Base.external_reference
            ~validation:
              (Ssam.Base.constraint_ ~id:"extract-params"
                 "Model.blocks.selectOne(b | b.id = 'D1').type")
            ~location:(Filename.concat dir "design.bd")
            ~model_type:"blockdiag" ();
          Ssam.Base.external_reference
            ~validation:
              (Ssam.Base.constraint_ ~id:"extract-hazard"
                 "Model.hazards.selectOne(h | h.id = 'H1').asil")
            ~location:(Filename.concat dir "hazards.json")
            ~model_type:"json" ();
        ]
      "D1"
  in
  Format.printf "federating data for element %s:@."
    (Ssam.Base.display_name d1_meta);
  List.iter
    (fun (r : Ssam.Base.external_reference) ->
      let value = run_extraction r in
      Format.printf "  %-10s %-28s -> %a@." r.Ssam.Base.model_type
        (Filename.basename r.Ssam.Base.location)
        Modelio.Mvalue.pp value)
    d1_meta.Ssam.Base.external_references;

  (* Richer queries over the same federated models. *)
  let reliability =
    Modelio.Driver.resolve ~model_type:"csv"
      ~location:(Filename.concat dir "reliability.csv") ~metadata:[]
  in
  let env = Query.Interp.env_of_models [ ("Reliability", reliability) ] in
  let total_fit =
    Query.Interp.run_string env
      "Reliability.rows.select(r | r.fit <> '').collect(r | \
       r.fit.toNumber()).sum()"
  in
  Format.printf "@.total catalogued FIT: %a@." Modelio.Mvalue.pp total_fit;
  let loss_modes =
    Query.Interp.run_string env
      "Reliability.rows.select(r | r.failure_mode.toLowerCase().contains('open') \
       or r.failure_mode.toLowerCase().contains('failure')).size()"
  in
  Format.printf "loss-like failure modes in the catalogue: %a@."
    Modelio.Mvalue.pp loss_modes;

  (* Clean up. *)
  List.iter
    (fun f -> Sys.remove (Filename.concat dir f))
    [ "reliability.csv"; "design.bd"; "hazards.json" ];
  Sys.rmdir dir
