open Optimize.Search

let greedy ?(component_types = []) ~target table sm_model =
  let all_slots = slots ~component_types table sm_model in
  let met spfm =
    match Fmea.Asil.spfm_target target with
    | None -> true
    | Some t -> spfm >= t
  in
  let slot_matches s (d : Fmea.Fmeda.deployment) =
    String.equal d.Fmea.Fmeda.target_component s.slot_component
    && String.equal d.Fmea.Fmeda.target_failure_mode s.slot_failure_mode
  in
  let rec step current =
    let current_candidate = evaluate table current in
    if met current_candidate.spfm_pct then current_candidate
    else
      let moves =
        List.concat_map
          (fun s ->
            let existing = List.find_opt (slot_matches s) current in
            let others = List.filter (fun d -> not (slot_matches s d)) current in
            List.filter_map
              (fun (m : Reliability.Sm_model.mechanism) ->
                let already =
                  match existing with
                  | Some d -> d.Fmea.Fmeda.mechanism = m
                  | None -> false
                in
                if already then None
                else
                  let d =
                    Fmea.Fmeda.deploy ~component:s.slot_component
                      ~failure_mode:s.slot_failure_mode m
                  in
                  Some (d :: others, m, existing))
              s.slot_options)
          all_slots
      in
      let best =
        List.fold_left
          (fun acc (next, (m : Reliability.Sm_model.mechanism), existing) ->
            let gain = (evaluate table next).spfm_pct -. current_candidate.spfm_pct in
            let cost_delta =
              m.Reliability.Sm_model.cost
              -.
              match existing with
              | Some (e : Fmea.Fmeda.deployment) ->
                  e.Fmea.Fmeda.mechanism.Reliability.Sm_model.cost
              | None -> 0.0
            in
            let score = gain /. Float.max cost_delta 0.01 in
            if gain <= 0.0 then acc
            else
              match acc with
              | Some (_, best_score) when best_score >= score -> acc
              | Some _ | None -> Some (next, score))
          None moves
      in
      match best with
      | None -> current_candidate
      | Some (next, _) -> step next
  in
  step []
