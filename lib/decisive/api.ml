type analysis_route = Via_injection | Via_ssam_paths | Via_fta

(* Functional abstraction of an electrical diagram for path analysis
   (Algorithm 1 and FTA): the input→output notion of the paper's SSAM
   models is the *power/function flow*, not the raw wiring, so

   - ground blocks and their edges are dropped (every return path runs
     through ground; keeping them would make everything bypassable);
   - supply blocks (vsource/isource) form the input boundary;
   - consumers (loads, MCUs, PLLs) form the output boundary;
   - simulation-only blocks never appear (the transformation keeps them,
     but they carry no reliability data).

   This mirrors how the paper's Fig. 12 SSAM twin is drawn: a directed
   chain from supply to load with off-path branches hanging off. *)
let functional_root ~reliability diagram =
  Blockdiag.Transform.functional_root ~reliability diagram

(* Every analysis runs on an incremental pipeline; a call without one
   gets a fresh pipeline of its own. *)
let pipeline = function Some e -> e | None -> Engine.Pipeline.create ()

let analyse ?engine ?previous ?(route = Via_injection) ?(exclude = [])
    ?monitored_sensors diagram reliability =
  let engine = pipeline engine in
  match route with
  | Via_injection ->
      let options =
        {
          Fmea.Injection_fmea.default_options with
          exclude;
          monitored_sensors;
        }
      in
      Engine.Pipeline.injection_fmea engine ?previous ~options diagram
        reliability
  | Via_ssam_paths ->
      let options = { Fmea.Path_fmea.default_options with exclude } in
      Engine.Pipeline.path_fmea engine ~options
        (functional_root ~reliability diagram)
  | Via_fta ->
      let root = functional_root ~reliability diagram in
      Engine.Pipeline.memo engine ~stage:"fmea.fta"
        ~key:
          (Engine.Fingerprint.node
             [
               Engine.Fingerprint.ssam_component root;
               Engine.Fingerprint.leaf
                 ("exclude:[" ^ String.concat ";" exclude ^ "]");
             ])
        (fun () ->
          let table = Fta.Fmea_from_fta.analyse root in
          (* The FTA route has no exclusion machinery; filter rows here. *)
          {
            table with
            Fmea.Table.rows =
              List.filter
                (fun (r : Fmea.Table.row) ->
                  not
                    (List.exists (String.equal r.Fmea.Table.component) exclude))
                table.Fmea.Table.rows;
          })

type refinement = {
  refined_table : Fmea.Table.t;
  chosen : Optimize.Search.candidate option;
  pareto_front : Optimize.Search.candidate list;
  achieved_spfm : float;
  meets_target : bool;
}

let refine ?engine ~target ?(component_types = []) table sm_model =
  let chosen, pareto_front =
    Engine.Pipeline.optimise (pipeline engine) ~component_types ~target table
      sm_model
  in
  let refined_table =
    match chosen with
    | Some c -> Fmea.Fmeda.apply table c.Optimize.Search.deployments
    | None -> table
  in
  let achieved_spfm = Fmea.Metrics.spfm refined_table in
  {
    refined_table;
    chosen;
    pareto_front;
    achieved_spfm;
    meets_target = Fmea.Asil.meets ~target ~spfm:achieved_spfm;
  }

let refine_design ?engine ~target diagram table sm_model =
  let engine = pipeline engine in
  let conversion = Engine.Pipeline.convert engine diagram in
  refine ~engine ~target
    ~component_types:conversion.Blockdiag.To_netlist.block_types table sm_model

let fmeda ?engine ~target ?exclude ?monitored_sensors diagram reliability
    sm_model =
  let engine = pipeline engine in
  let table = analyse ~engine ?exclude ?monitored_sensors diagram reliability in
  refine_design ~engine ~target diagram table sm_model

let refinement_text ~target r =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Format.asprintf "%a@."
       (fun ppf () -> Fmea.Asil.pp_verdict ppf ~target ~spfm:r.achieved_spfm)
       ());
  (match r.chosen with
  | Some c ->
      List.iter
        (fun (d : Fmea.Fmeda.deployment) ->
          Printf.bprintf buf "deploy %s on %s/%s\n"
            d.Fmea.Fmeda.mechanism.Reliability.Sm_model.sm_name
            d.Fmea.Fmeda.target_component d.Fmea.Fmeda.target_failure_mode)
        c.Optimize.Search.deployments
  | None -> Buffer.add_string buf "no deployment meets the target\n");
  Buffer.contents buf

(* One pass of Fig. 1.  Iterating means a changed design (Step 2), which
   only the caller can supply; an unmet target leaves the process short
   of Step 5. *)
let run_decisive ?engine ~name ~target ?exclude ?monitored_sensors diagram
    reliability sm_model =
  let engine = pipeline engine in
  let perform process step produces =
    match Process.perform process step ~produces with
    | Ok p -> p
    | Error e ->
        invalid_arg (Format.asprintf "run_decisive: %a" Process.pp_error e)
  in
  let evaluate process table ~model ~metrics =
    let process =
      perform process Process.Step4a_evaluate
        [
          (Process.Component_safety_analysis_model, model);
          (Process.Architecture_metrics, metrics);
        ]
    in
    Process.record_spfm process (Fmea.Metrics.spfm table)
  in
  let process =
    List.fold_left
      (fun process (step, produces) -> perform process step produces)
      (Process.start ~name ~target)
      [
        ( Process.Step1_plan,
          [
            (Process.System_definition, name ^ " definition");
            (Process.Function_requirements, name ^ " function requirements");
            (Process.Hazard_log, name ^ " hazard log");
          ] );
        ( Process.Step2_design,
          [
            (Process.Safety_requirements, name ^ " safety requirements");
            ( Process.Architectural_design,
              diagram.Blockdiag.Diagram.diagram_name );
          ] );
        ( Process.Step3_reliability,
          [ (Process.Component_reliability_model, "reliability model") ] );
      ]
  in
  let meets table = Fmea.Asil.meets ~target ~spfm:(Fmea.Metrics.spfm table) in
  let table = analyse ~engine ?exclude ?monitored_sensors diagram reliability in
  let process = evaluate process table ~model:"FMEA table" ~metrics:"SPFM" in
  let process, table, deployments =
    if meets table then (process, table, [])
    else
      let r = refine_design ~engine ~target diagram table sm_model in
      let process =
        perform process Process.Step4b_refine
          [ (Process.Safety_mechanism_model, "SM deployment proposal") ]
      in
      ( evaluate process r.refined_table ~model:"FMEDA table"
          ~metrics:"SPFM (refined)",
        r.refined_table,
        match r.chosen with
        | Some c -> c.Optimize.Search.deployments
        | None -> [] )
  in
  let process =
    if meets table then
      perform process Process.Step5_safety_concept
        [ (Process.Safety_concept, name ^ " safety concept") ]
    else process
  in
  (process, table, deployments)

let spfm_query ~target =
  let threshold =
    match Fmea.Asil.spfm_target target with Some t -> t | None -> 0.0
  in
  Printf.sprintf
    "var sr := Artifact.rows.select(r | r.safety_related = 'Yes');\n\
     var comps := sr.collect(r | r.component).distinct();\n\
     var lambda := comps.collect(c | Artifact.rows.select(r | r.component = \
     c).first().fit.toNumber()).sum();\n\
     var spf := sr.collect(r | \
     r.single_point_failure_rate.split(' ').first().toNumber()).sum();\n\
     return lambda > 0 and (100 * (1 - spf / lambda)) >= %g;"
    threshold

let export_fmeda ~path table =
  Modelio.Csv.write_file path
    (Fmea.Table.to_csv ~repeat_component_cells:true table)

let assurance_case_for ~system ~target ~fmeda_csv =
  let open Assurance.Sacm in
  let target_name = Ssam.Requirement.integrity_level_to_string target in
  {
    case_name = system ^ " safety case";
    root =
      goal ~id:"G1"
        ~in_context_of:
          [
            context ~id:"C1" (system ^ " as a Safety Element out of Context");
            context ~id:"C2" ("target integrity level " ^ target_name);
          ]
        ~supported_by:
          [
            strategy ~id:"S1"
              "Argument over the results of the automated safety analysis"
              ~supported_by:
                [
                  goal ~id:"G2"
                    (Printf.sprintf
                       "The architecture metrics meet the %s targets"
                       target_name)
                    ~supported_by:
                      [
                        solution ~id:"Sn1"
                          "FMEDA results generated by SAME"
                          ~artifact:
                            (artifact
                               ~query:(spfm_query ~target)
                               ~description:
                                 "Excel-based FMEDA table produced by Step 4a"
                               ~location:fmeda_csv ~driver:"csv" ());
                      ];
                  goal ~id:"G3"
                    "All safety-related components carry mitigations or are \
                     covered by safety mechanisms"
                    ~supported_by:
                      [
                        solution ~id:"Sn2"
                          "Safety-mechanism deployment record"
                          ~artifact:
                            (artifact
                               ~description:"Step 4b deployment decision"
                               ~location:fmeda_csv ~driver:"csv" ());
                      ];
                ];
          ]
        (Printf.sprintf "%s is acceptably safe to operate in its defined \
                         operational context" system);
  }
