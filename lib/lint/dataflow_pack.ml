(* Dataflow pack: propagation-based checks built on the lib/dataflow
   fixpoint passes.  Diagram inputs get the block-level propagation
   model (directed signals, bidirectional electrical nets, grounds
   dropped); model-only inputs get the flat-package view of every
   component package.

   The fixpoints run sequentially (jobs = 1) inside this pack: the pack
   itself is already a task of a parallel batch, and batches nested in
   its tasks would only compete for the same worker slots.  Findings
   are identical at every SAME_JOBS setting either way. *)

let rule id severity title = { Rule.id; severity; category = Rule.Dataflow; title }

let dfa001 = rule "DFA001" Rule.Warning "failure mode reaches no monitored output (latent)"
let dfa002 = rule "DFA002" Rule.Warning "monitored output explained by no failure mode"
let dfa003 = rule "DFA003" Rule.Error "forward and backward propagation disagree"
let dfa004 = rule "DFA004" Rule.Warning "safety-related failure mode lacks safety-mechanism coverage"
let dfa005 = rule "DFA005" Rule.Error "component integrity below the level demanded by reachable hazards"
let dfa006 = rule "DFA006" Rule.Warning "safety mechanism cannot observe a failure mode it covers"
let dfa007 = rule "DFA007" Rule.Info "redundant components form double-point explanations"
let dfa008 = rule "DFA008" Rule.Warning "excluded component still explains a monitored output"

let rules = [ dfa001; dfa002; dfa003; dfa004; dfa005; dfa006; dfa007; dfa008 ]

(* One propagation model checked against the full rule set.  [file]
   locates findings; [ssam_model] enables the integrity rule. *)
let check ?file ?ssam_model ~exclude acc (m : Dataflow.Model.t) =
  let diag ?element ?hint rule msg =
    acc := Rule.diagnostic ?element ?file ?hint ~rule msg :: !acc
  in
  let forward = Dataflow.Passes.forward_taint ~jobs:1 m in
  let backward = Dataflow.Passes.backward_reach ~jobs:1 m in
  let agree, pairs = Dataflow.Passes.agreement m ~forward ~backward in
  if not agree then
    diag dfa003
      (Printf.sprintf
         "forward taint and backward reachability induce different \
          (failure-mode, output) relations over %d pairs — propagation \
          model is inconsistent"
         pairs);
  let has_outputs = m.Dataflow.Model.outputs <> [] in
  if has_outputs then begin
    List.iter
      (fun (md : Dataflow.Model.mode) ->
        diag ~element:md.Dataflow.Model.m_component
          ~hint:"add a sensor downstream or drop the mode from the model"
          dfa001
          (Printf.sprintf
             "failure mode '%s' of %s cannot deviate any monitored output"
             md.Dataflow.Model.m_name md.Dataflow.Model.m_component))
      (Dataflow.Passes.latent_modes m ~forward);
    List.iter
      (fun output ->
        diag ~element:output
          ~hint:"the observation point watches nothing that can fail" dfa002
          (Printf.sprintf "no failure mode in the model reaches output '%s'"
             output))
      (Dataflow.Passes.silent_outputs m ~forward);
    List.iter
      (fun (md : Dataflow.Model.mode) ->
        diag ~element:md.Dataflow.Model.m_component
          ~hint:"assign a safety mechanism covering this mode" dfa004
          (Printf.sprintf
             "failure mode '%s' of %s can deviate a monitored output but no \
              safety mechanism diagnoses it"
             md.Dataflow.Model.m_name md.Dataflow.Model.m_component))
      (Dataflow.Passes.coverage_gaps m ~forward);
    (* Double-point explanations among redundant components, per output. *)
    List.iter
      (fun (output, _) ->
        let redundant_components =
          List.sort_uniq String.compare
            (List.filter_map
               (fun (md : Dataflow.Model.mode) ->
                 if
                   md.Dataflow.Model.m_loss_like
                   && Graph.Bitset.mem m.Dataflow.Model.redundant
                        md.Dataflow.Model.m_node
                 then Some md.Dataflow.Model.m_component
                 else None)
               (Dataflow.Passes.backward_explains m backward ~output))
        in
        if List.length redundant_components >= 2 then
          diag ~element:output dfa007
            (Printf.sprintf
               "redundant components %s jointly explain output '%s' \
                (double-point failure)"
               (String.concat ", " redundant_components)
               output))
      m.Dataflow.Model.outputs;
    List.iter
      (fun excluded ->
        let explains =
          List.exists
            (fun (output, _) ->
              List.exists
                (fun (md : Dataflow.Model.mode) ->
                  String.equal md.Dataflow.Model.m_component excluded)
                (Dataflow.Passes.backward_explains m backward ~output))
            m.Dataflow.Model.outputs
        in
        if explains then
          diag ~element:excluded
            ~hint:"the exclusion assumption hides a real cause" dfa008
            (Printf.sprintf
               "component '%s' is excluded from injection but its failure \
                modes still explain a monitored output"
               excluded))
      exclude
  end;
  List.iter
    (fun (sm_id, host, (md : Dataflow.Model.mode)) ->
      diag ~element:host
        ~hint:"move the mechanism onto the propagation path" dfa006
        (Printf.sprintf
           "safety mechanism '%s' on %s covers failure mode '%s' of %s, \
            which cannot reach it"
           sm_id host md.Dataflow.Model.m_name md.Dataflow.Model.m_component))
    (Dataflow.Passes.off_path_mechanisms m ~forward);
  match ssam_model with
  | None -> ()
  | Some model ->
      List.iter
        (fun (f : Dataflow.Passes.integrity_finding) ->
          let lvl = Ssam.Requirement.integrity_level_to_string in
          diag ~element:f.Dataflow.Passes.if_component
            ~hint:"raise the allocation or mitigate the hazard" dfa005
            (Printf.sprintf
               "component '%s' is allocated %s but hazard '%s' (via %s) \
                demands %s"
               f.Dataflow.Passes.if_component
               (match f.Dataflow.Passes.allocated with
               | Some l -> lvl l
               | None -> "nothing")
               f.Dataflow.Passes.hazard
               f.Dataflow.Passes.via_mode.Dataflow.Model.m_key
               (lvl f.Dataflow.Passes.demanded)))
        (Dataflow.Passes.integrity_violations ~jobs:1 model m)

let run (input : Input.t) =
  let acc = ref [] in
  (match (input.Input.diagram, input.Input.model) with
  | Some (path, diagram), _ ->
      let m =
        Dataflow.Model.of_diagram ~monitored:input.Input.monitored
          ?reliability:(Option.map snd input.Input.reliability)
          ?sm:(Option.map snd input.Input.sm)
          diagram
      in
      check ~file:path ~exclude:input.Input.exclude acc m
  | None, Some model ->
      List.iter
        (fun pkg ->
          let m = Dataflow.Model.of_package pkg in
          check ~ssam_model:model ~exclude:input.Input.exclude acc m)
        model.Ssam.Model.component_packages
  | None, None -> ());
  List.rev !acc
