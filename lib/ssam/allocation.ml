let allocate ~requirement ~component =
  Mbsa.trace_link
    ~meta:(Base.meta (Printf.sprintf "alloc:%s->%s" requirement component))
    ~kind:Mbsa.Allocates ~source:requirement ~target:component

type violation =
  | Unallocated of Base.id
  | Insufficient_integrity of {
      requirement : Base.id;
      required : Requirement.integrity_level;
      component : Base.id;
      actual : Requirement.integrity_level option;
    }
  | Dangling of { link : Base.id; missing : Base.id }
  | Not_a_requirement of { link : Base.id; id : Base.id }
  | Not_a_component of { link : Base.id; id : Base.id }

let allocation_links (mbsa : Mbsa.package) =
  List.filter
    (fun (t : Mbsa.trace_link) -> t.Mbsa.trace_kind = Mbsa.Allocates)
    mbsa.Mbsa.traces

let safety_requirements (model : Model.t) =
  List.concat_map
    (fun p -> List.filter Requirement.is_safety_requirement (Requirement.requirements p))
    model.Model.requirement_packages

let check (model : Model.t) (mbsa : Mbsa.package) =
  let idx = Model.index model in
  let links = allocation_links mbsa in
  let violations = ref [] in
  let note v = violations := v :: !violations in
  (* Per-link structural and integrity checks. *)
  List.iter
    (fun (t : Mbsa.trace_link) ->
      let link = t.Mbsa.tl_meta.Base.id in
      let requirement =
        match Model.lookup idx t.Mbsa.trace_source with
        | None ->
            note (Dangling { link; missing = t.Mbsa.trace_source });
            None
        | Some (Model.E_requirement (Requirement.Requirement r)) -> Some r
        | Some _ ->
            note (Not_a_requirement { link; id = t.Mbsa.trace_source });
            None
      in
      let component =
        match Model.lookup idx t.Mbsa.trace_target with
        | None ->
            note (Dangling { link; missing = t.Mbsa.trace_target });
            None
        | Some (Model.E_component c) -> Some c
        | Some _ ->
            note (Not_a_component { link; id = t.Mbsa.trace_target });
            None
      in
      match (requirement, component) with
      | Some r, Some c -> (
          match r.Requirement.integrity with
          | None -> ()
          | Some required ->
              let sufficient =
                match c.Architecture.integrity with
                | Some actual ->
                    Requirement.compare_integrity_level actual required >= 0
                | None -> false
              in
              if not sufficient then
                note
                  (Insufficient_integrity
                     {
                       requirement = r.Requirement.meta.Base.id;
                       required;
                       component = Architecture.component_id c;
                       actual = c.Architecture.integrity;
                     }))
      | _ -> ())
    links;
  (* Completeness. *)
  List.iter
    (fun (r : Requirement.requirement) ->
      let rid = r.Requirement.meta.Base.id in
      if
        not
          (List.exists
             (fun (t : Mbsa.trace_link) -> String.equal t.Mbsa.trace_source rid)
             links)
      then note (Unallocated rid))
    (safety_requirements model);
  List.rev !violations

let is_complete model mbsa =
  not
    (List.exists
       (function Unallocated _ -> true | _ -> false)
       (check model mbsa))

type matrix_row = {
  requirement_id : Base.id;
  requirement_text : string;
  integrity : Requirement.integrity_level option;
  allocated_to : Base.id list;
}

let matrix (model : Model.t) (mbsa : Mbsa.package) =
  let links = allocation_links mbsa in
  List.map
    (fun (r : Requirement.requirement) ->
      let rid = r.Requirement.meta.Base.id in
      {
        requirement_id = rid;
        requirement_text = r.Requirement.text;
        integrity = r.Requirement.integrity;
        allocated_to =
          List.filter_map
            (fun (t : Mbsa.trace_link) ->
              if String.equal t.Mbsa.trace_source rid then Some t.Mbsa.trace_target
              else None)
            links;
      })
    (safety_requirements model)

let auto_allocate (model : Model.t) (mbsa : Mbsa.package) =
  let links = allocation_links mbsa in
  let already rid =
    List.exists (fun (t : Mbsa.trace_link) -> String.equal t.Mbsa.trace_source rid) links
  in
  (* hazard id -> components whose failure modes cite it. *)
  let components_for_hazard hid =
    List.filter
      (fun (c : Architecture.component) ->
        List.exists
          (fun (fm : Architecture.failure_mode) ->
            List.exists (String.equal hid) fm.Architecture.hazards)
          c.Architecture.failure_modes)
      (Model.components model)
  in
  let new_links =
    List.concat_map
      (fun (r : Requirement.requirement) ->
        let rid = r.Requirement.meta.Base.id in
        if already rid then []
        else
          List.concat_map
            (fun hid ->
              List.map
                (fun c ->
                  allocate ~requirement:rid
                    ~component:(Architecture.component_id c))
                (components_for_hazard hid))
            r.Requirement.meta.Base.cites)
      (safety_requirements model)
  in
  List.fold_left Mbsa.add_trace mbsa new_links
