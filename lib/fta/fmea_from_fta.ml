open Ssam

let strip_prefix s prefix =
  let n = String.length prefix in
  if String.length s >= n && String.sub s 0 n = prefix then
    Some (String.sub s n (String.length s - n))
  else None

(* "loss:C" → C; voting channels ("loss:C:ch1") are not whole-component
   ids and drop out. *)
let component_of_loss_event event_id =
  match strip_prefix event_id "loss:" with
  | Some rest -> (
      match String.index_opt rest ':' with
      | Some _ -> None
      | None -> Some rest)
  | None -> None

let single_point_components tree =
  let sets = Cut_sets.minimal tree in
  List.filter_map component_of_loss_event (Cut_sets.singletons sets)

let single_points_via_bdd (c : Architecture.component) =
  match From_ssam.of_structure c with
  | exception From_ssam.No_paths _ -> []
  | tree ->
      Bdd.build ~order:(From_ssam.event_order c) tree
      |> Bdd.minimal_critical_sets ~max_cardinality:1
      |> List.concat_map (List.filter_map component_of_loss_event)
      |> List.sort_uniq String.compare

let analyse (c : Architecture.component) =
  let tree = From_ssam.generate c in
  let spf = single_point_components tree in
  let is_spf id = List.exists (String.equal id) spf in
  let rows =
    List.concat_map
      (fun (child : Architecture.component) ->
        let cid = Architecture.component_id child in
        List.map
          (fun (fm : Architecture.failure_mode) ->
            let fm_name = Base.display_name fm.Architecture.fm_meta in
            let loss = Architecture.is_loss_like fm.Architecture.nature in
            Fmea.Table.make_row
              ~impact:
                (if loss && is_spf cid then "singleton minimal cut set"
                 else "not a singleton cut set")
              ?warning:
                (if loss then None
                 else
                   Some
                     (Printf.sprintf
                        "failure mode '%s' is not loss-of-function; FTA route \
                         cannot classify it"
                        fm_name))
              ~component:cid ~component_fit:child.Architecture.fit
              ~failure_mode:fm_name
              ~distribution_pct:fm.Architecture.distribution_pct
              ~safety_related:(loss && is_spf cid) ())
          child.Architecture.failure_modes)
      c.Architecture.children
  in
  {
    Fmea.Table.system_name = Architecture.component_name c ^ " (via FTA)";
    rows;
  }
