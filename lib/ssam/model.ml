type t = {
  model_meta : Base.meta;
  requirement_packages : Requirement.package list;
  hazard_packages : Hazard.package list;
  component_packages : Architecture.package list;
  mbsa_packages : Mbsa.package list;
}

type entity =
  | E_requirement of Requirement.element
  | E_hazard of Hazard.element
  | E_component of Architecture.component
  | E_arch_relationship of Architecture.relationship
  | E_io_node of Architecture.io_node
  | E_failure_mode of Architecture.failure_mode
  | E_failure_effect of Architecture.failure_effect
  | E_safety_mechanism of Architecture.safety_mechanism
  | E_function of Architecture.func
  | E_cause of Hazard.cause
  | E_package of Base.meta
  | E_mbsa_artifact of Mbsa.artifact_reference
  | E_mbsa_trace of Mbsa.trace_link

let create ?(requirement_packages = []) ?(hazard_packages = [])
    ?(component_packages = []) ?(mbsa_packages = []) ~meta () =
  {
    model_meta = meta;
    requirement_packages;
    hazard_packages;
    component_packages;
    mbsa_packages;
  }

let entity_meta = function
  | E_requirement e -> Requirement.element_meta e
  | E_hazard e -> Hazard.element_meta e
  | E_component c -> c.Architecture.c_meta
  | E_arch_relationship r -> r.Architecture.rel_meta
  | E_io_node io -> io.Architecture.io_meta
  | E_failure_mode fm -> fm.Architecture.fm_meta
  | E_failure_effect fe -> fe.Architecture.fe_meta
  | E_safety_mechanism sm -> sm.Architecture.sm_meta
  | E_function f -> f.Architecture.fn_meta
  | E_cause c -> c.Hazard.cause_meta
  | E_package m -> m
  | E_mbsa_artifact a -> a.Mbsa.ar_meta
  | E_mbsa_trace t -> t.Mbsa.tl_meta

type index = (Base.id, entity) Hashtbl.t

let add_entity tbl e =
  let id = (entity_meta e).Base.id in
  if not (Hashtbl.mem tbl id) then Hashtbl.add tbl id e

let index_component tbl root =
  Architecture.iter_components
    (fun c ->
      add_entity tbl (E_component c);
      List.iter (fun io -> add_entity tbl (E_io_node io)) c.Architecture.io_nodes;
      List.iter
        (fun fm ->
          add_entity tbl (E_failure_mode fm);
          List.iter
            (fun fe -> add_entity tbl (E_failure_effect fe))
            fm.Architecture.effects)
        c.Architecture.failure_modes;
      List.iter
        (fun sm -> add_entity tbl (E_safety_mechanism sm))
        c.Architecture.safety_mechanisms;
      List.iter (fun f -> add_entity tbl (E_function f)) c.Architecture.functions;
      List.iter
        (fun r -> add_entity tbl (E_arch_relationship r))
        c.Architecture.connections)
    root

let index model =
  let tbl : index = Hashtbl.create 256 in
  add_entity tbl (E_package model.model_meta);
  List.iter
    (fun (p : Requirement.package) ->
      add_entity tbl (E_package p.Requirement.package_meta);
      List.iter (fun e -> add_entity tbl (E_requirement e)) p.Requirement.elements)
    model.requirement_packages;
  List.iter
    (fun (p : Hazard.package) ->
      add_entity tbl (E_package p.Hazard.package_meta);
      List.iter
        (fun e ->
          add_entity tbl (E_hazard e);
          match e with
          | Hazard.Situation s ->
              List.iter (fun c -> add_entity tbl (E_cause c)) s.Hazard.causes
          | Hazard.Measure _ -> ())
        p.Hazard.elements)
    model.hazard_packages;
  List.iter
    (fun (p : Architecture.package) ->
      add_entity tbl (E_package p.Architecture.package_meta);
      List.iter
        (function
          | Architecture.Component c -> index_component tbl c
          | Architecture.Relationship r -> add_entity tbl (E_arch_relationship r))
        p.Architecture.elements)
    model.component_packages;
  List.iter
    (fun (p : Mbsa.package) ->
      add_entity tbl (E_package p.Mbsa.package_meta);
      List.iter (fun a -> add_entity tbl (E_mbsa_artifact a)) p.Mbsa.artifacts;
      List.iter (fun t -> add_entity tbl (E_mbsa_trace t)) p.Mbsa.traces)
    model.mbsa_packages;
  tbl

let lookup tbl id = Hashtbl.find_opt tbl id

let iter_entities f tbl = Hashtbl.iter (fun _ e -> f e) tbl

let count_elements model =
  let requirement_count =
    List.fold_left
      (fun acc (p : Requirement.package) ->
        acc + 1 + List.length p.Requirement.elements)
      0 model.requirement_packages
  in
  let hazard_count =
    List.fold_left
      (fun acc (p : Hazard.package) ->
        acc + 1
        + List.fold_left
            (fun n e ->
              n + 1
              +
              match e with
              | Hazard.Situation s -> List.length s.Hazard.causes
              | Hazard.Measure _ -> 0)
            0 p.Hazard.elements)
      0 model.hazard_packages
  in
  let component_count =
    List.fold_left
      (fun acc p -> acc + 1 + Architecture.count_package_elements p)
      0 model.component_packages
  in
  let mbsa_count =
    List.fold_left
      (fun acc (p : Mbsa.package) ->
        acc + 1 + List.length p.Mbsa.artifacts + List.length p.Mbsa.traces)
      0 model.mbsa_packages
  in
  1 + requirement_count + hazard_count + component_count + mbsa_count

let components model =
  List.concat_map
    (fun p ->
      List.concat_map
        (fun c ->
          List.rev
            (Architecture.fold_components (fun acc c -> c :: acc) [] c))
        (Architecture.top_components p))
    model.component_packages

let find_component model id =
  List.fold_left
    (fun acc p ->
      match acc with
      | Some _ -> acc
      | None -> Architecture.find_in_package p id)
    None model.component_packages
