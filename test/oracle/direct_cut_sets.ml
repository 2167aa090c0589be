open Dataflow

let of_explanations (m : Model.t) explanations =
  let surviving =
    List.filter_map
      (fun (e : Diagnose.explanation) ->
        match e.Diagnose.verdict with
        | Diagnose.Refuted _ -> None
        | Diagnose.Structural | Diagnose.Confirmed _ -> Some e.Diagnose.mode)
      explanations
  in
  let loss_like redundant =
    List.filter
      (fun (md : Model.mode) ->
        md.Model.m_loss_like
        && Graph.Bitset.mem m.Model.redundant md.Model.m_node = redundant)
      surviving
  in
  let singles =
    List.map
      (fun (md : Model.mode) -> Cut_set_minimize.normalize [ md.Model.m_key ])
      (loss_like false)
  in
  let redundant_modes = loss_like true in
  let doubles =
    List.concat_map
      (fun (a : Model.mode) ->
        List.filter_map
          (fun (b : Model.mode) ->
            if
              a.Model.m_index < b.Model.m_index
              && not (String.equal a.Model.m_component b.Model.m_component)
            then Some (Cut_set_minimize.normalize [ a.Model.m_key; b.Model.m_key ])
            else None)
          redundant_modes)
      redundant_modes
  in
  List.partition
    (fun cs -> List.length cs = 1)
    (Cut_set_minimize.minimize (singles @ doubles))
