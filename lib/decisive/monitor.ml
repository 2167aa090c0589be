open Ssam

type check = {
  check_component : string;
  check_node : string;
  lower : float option;
  upper : float option;
}

type violation = {
  v_component : string;
  v_node : string;
  observed : float;
  bound : [ `Below of float | `Above of float ];
  at : float;
}

type t = { monitor_checks : check list }

let checks_of_component (c : Architecture.component) =
  if not c.Architecture.dynamic then []
  else
    List.filter_map
      (fun (io : Architecture.io_node) ->
        match (io.Architecture.lower_limit, io.Architecture.upper_limit) with
        | None, None -> None
        | lower, upper ->
            Some
              {
                check_component = Architecture.component_id c;
                check_node = io.Architecture.io_meta.Base.id;
                lower;
                upper;
              })
      c.Architecture.io_nodes

let generate_component root =
  let acc = ref [] in
  Architecture.iter_components
    (fun c -> acc := checks_of_component c @ !acc)
    root;
  { monitor_checks = List.rev !acc }

let checks t = t.monitor_checks

let observe t ~component ~node ~value ~at =
  let check =
    List.find_opt
      (fun c ->
        String.equal c.check_component component
        && String.equal c.check_node node)
      t.monitor_checks
  in
  match check with
  | None -> None
  | Some c -> (
      match (c.lower, c.upper) with
      | Some lo, _ when value < lo ->
          Some
            {
              v_component = component;
              v_node = node;
              observed = value;
              bound = `Below lo;
              at;
            }
      | _, Some hi when value > hi ->
          Some
            {
              v_component = component;
              v_node = node;
              observed = value;
              bound = `Above hi;
              at;
            }
      | _ -> None)

let observe_all t ~at readings =
  List.filter_map
    (fun (component, node, value) -> observe t ~component ~node ~value ~at)
    readings

let pp_violation ppf v =
  let bound_str =
    match v.bound with
    | `Below lo -> Printf.sprintf "below lower limit %g" lo
    | `Above hi -> Printf.sprintf "above upper limit %g" hi
  in
  Format.fprintf ppf "t=%g %s.%s = %g %s" v.at v.v_component v.v_node
    v.observed bound_str
