type severity = Error | Warning [@@deriving eq, show]

type finding = {
  f_rule : string;
  f_severity : severity;
  f_element : Base.id;
  f_message : string;
  f_hint : string option;
}
[@@deriving eq, show]

let rules =
  [
    ("SSAM001", Error, "duplicate element id");
    ("SSAM002", Error, "dangling reference");
    ("SSAM003", Error, "malformed relationship");
    ("SSAM004", Error, "safety mechanism covers a non-failure-mode");
    ("SSAM005", Error, "bad failure-mode hazard link");
    ("SSAM006", Error, "numeric range violation");
    ("SSAM007", Warning, "failure-mode distributions do not sum to 100%");
    ("SSAM008", Warning, "unreachable architecture component");
    ("SSAM009", Warning, "failure modes declared without a FIT row");
    ("SSAM010", Warning, "integrity target without allocated requirement");
  ]

let pp_finding ppf f =
  Format.fprintf ppf "%s %s: [%s] %s" f.f_rule
    (match f.f_severity with Error -> "error" | Warning -> "warning")
    f.f_element f.f_message

type adder = string -> ?hint:string -> severity -> Base.id -> string -> unit

(* Collect every id in declaration order, including duplicates, so
   uniqueness can be checked (Model.index silently keeps the first). *)
let collect_ids model =
  let acc = ref [] in
  let push (m : Base.meta) = acc := m.Base.id :: !acc in
  push model.Model.model_meta;
  List.iter
    (fun (p : Requirement.package) ->
      push p.Requirement.package_meta;
      List.iter
        (fun e -> push (Requirement.element_meta e))
        p.Requirement.elements;
      List.iter
        (fun (i : Requirement.package_interface) ->
          push i.Requirement.interface_meta)
        p.Requirement.interfaces)
    model.Model.requirement_packages;
  List.iter
    (fun (p : Hazard.package) ->
      push p.Hazard.package_meta;
      List.iter
        (fun e ->
          push (Hazard.element_meta e);
          match e with
          | Hazard.Situation s ->
              List.iter (fun c -> push c.Hazard.cause_meta) s.Hazard.causes
          | Hazard.Measure _ -> ())
        p.Hazard.elements)
    model.Model.hazard_packages;
  List.iter
    (fun (p : Architecture.package) ->
      push p.Architecture.package_meta;
      List.iter
        (function
          | Architecture.Relationship r -> push r.Architecture.rel_meta
          | Architecture.Component root ->
              Architecture.iter_components
                (fun c ->
                  push c.Architecture.c_meta;
                  List.iter
                    (fun (io : Architecture.io_node) ->
                      push io.Architecture.io_meta)
                    c.Architecture.io_nodes;
                  List.iter
                    (fun (fm : Architecture.failure_mode) ->
                      push fm.Architecture.fm_meta;
                      List.iter
                        (fun (fe : Architecture.failure_effect) ->
                          push fe.Architecture.fe_meta)
                        fm.Architecture.effects)
                    c.Architecture.failure_modes;
                  List.iter
                    (fun (sm : Architecture.safety_mechanism) ->
                      push sm.Architecture.sm_meta)
                    c.Architecture.safety_mechanisms;
                  List.iter
                    (fun (f : Architecture.func) -> push f.Architecture.fn_meta)
                    c.Architecture.functions;
                  List.iter
                    (fun (r : Architecture.relationship) ->
                      push r.Architecture.rel_meta)
                    c.Architecture.connections)
                root)
        p.Architecture.elements)
    model.Model.component_packages;
  List.iter
    (fun (p : Mbsa.package) ->
      push p.Mbsa.package_meta;
      List.iter (fun a -> push a.Mbsa.ar_meta) p.Mbsa.artifacts;
      List.iter (fun t -> push t.Mbsa.tl_meta) p.Mbsa.traces)
    model.Model.mbsa_packages;
  List.rev !acc

let check_duplicates ids (add : adder) =
  let seen = Hashtbl.create 97 in
  List.iter
    (fun id ->
      if Hashtbl.mem seen id then
        add "SSAM001" ~hint:"rename one of the elements" Error id
          "duplicate element id"
      else Hashtbl.add seen id ())
    ids

let check_numeric_component (add : adder) (c : Architecture.component) =
  let cid = Architecture.component_id c in
  if c.Architecture.fit < 0.0 then add "SSAM006" Error cid "negative FIT";
  List.iter
    (fun (fm : Architecture.failure_mode) ->
      let fid = fm.Architecture.fm_meta.Base.id in
      let d = fm.Architecture.distribution_pct in
      if d < 0.0 || d > 100.0 then
        add "SSAM006" Error fid
          (Printf.sprintf "failure-mode distribution %.2f%% outside [0,100]" d))
    c.Architecture.failure_modes;
  if c.Architecture.failure_modes <> [] then begin
    let sum =
      List.fold_left
        (fun s (fm : Architecture.failure_mode) ->
          s +. fm.Architecture.distribution_pct)
        0.0 c.Architecture.failure_modes
    in
    if Float.abs (sum -. 100.0) > 0.5 then
      add "SSAM007"
        ~hint:"make the distribution percentages of the component's failure \
               modes sum to 100"
        Warning cid
        (Printf.sprintf "failure-mode distributions sum to %.2f%%, not 100%%"
           sum)
  end;
  List.iter
    (fun (sm : Architecture.safety_mechanism) ->
      let sid = sm.Architecture.sm_meta.Base.id in
      let cov = sm.Architecture.coverage_pct in
      if cov < 0.0 || cov > 100.0 then
        add "SSAM006" Error sid
          (Printf.sprintf "diagnostic coverage %.2f%% outside [0,100]" cov);
      if sm.Architecture.sm_cost < 0.0 then
        add "SSAM006" Error sid "negative SM cost")
    c.Architecture.safety_mechanisms;
  List.iter
    (fun (io : Architecture.io_node) ->
      match (io.Architecture.lower_limit, io.Architecture.upper_limit) with
      | Some lo, Some hi when lo > hi ->
          add "SSAM006" Error io.Architecture.io_meta.Base.id
            (Printf.sprintf "IO limits inverted (%.3g > %.3g)" lo hi)
      | _ -> ())
    c.Architecture.io_nodes

let check_references model idx (add : adder) =
  let resolves id = Option.is_some (Model.lookup idx id) in
  let check_ref owner kind id =
    if not (resolves id) then
      add "SSAM002"
        ~hint:"fix the id or add the referenced element"
        Error owner
        (Printf.sprintf "dangling %s reference to '%s'" kind id)
  in
  let check_meta_cites (m : Base.meta) =
    List.iter (fun id -> check_ref m.Base.id "cite" id) m.Base.cites
  in
  (* Citations everywhere. *)
  Model.iter_entities (fun e -> check_meta_cites (Model.entity_meta e)) idx;
  (* Architecture-specific referential checks. *)
  List.iter
    (fun (p : Architecture.package) ->
      let check_relationship ~scope (r : Architecture.relationship) =
        let rid = r.Architecture.rel_meta.Base.id in
        let endpoint cid node =
          (match Model.lookup idx cid with
          | Some (Model.E_component c) ->
              (match scope with
              | Some allowed
                when not (List.exists (String.equal cid) allowed) ->
                  add "SSAM003" Warning rid
                    (Printf.sprintf
                       "relationship endpoint '%s' is not a direct child of \
                        the enclosing component"
                       cid)
              | Some _ | None -> ());
              (match node with
              | Some nid ->
                  let io_ids =
                    List.map
                      (fun (io : Architecture.io_node) ->
                        io.Architecture.io_meta.Base.id)
                      c.Architecture.io_nodes
                  in
                  if not (List.exists (String.equal nid) io_ids) then
                    add "SSAM003" Error rid
                      (Printf.sprintf "IO node '%s' not on component '%s'" nid
                         cid)
              | None -> ())
          | Some _ ->
              add "SSAM003" Error rid
                (Printf.sprintf "relationship endpoint '%s' is not a component"
                   cid)
          | None ->
              add "SSAM003" Error rid
                (Printf.sprintf "dangling relationship endpoint '%s'" cid))
        in
        endpoint r.Architecture.from_component r.Architecture.from_node;
        endpoint r.Architecture.to_component r.Architecture.to_node
      in
      List.iter
        (function
          | Architecture.Relationship r -> check_relationship ~scope:None r
          | Architecture.Component root ->
              Architecture.iter_components
                (fun c ->
                  let child_ids =
                    List.map Architecture.component_id
                      c.Architecture.children
                    @ [ Architecture.component_id c ]
                  in
                  List.iter
                    (check_relationship ~scope:(Some child_ids))
                    c.Architecture.connections;
                  (* SM covers must name failure modes of the same component. *)
                  let fm_ids =
                    List.map
                      (fun (fm : Architecture.failure_mode) ->
                        fm.Architecture.fm_meta.Base.id)
                      c.Architecture.failure_modes
                  in
                  List.iter
                    (fun (sm : Architecture.safety_mechanism) ->
                      List.iter
                        (fun fmid ->
                          if not (List.exists (String.equal fmid) fm_ids) then
                            add "SSAM004"
                              ~hint:"point the mechanism's covers list at a \
                                     failure mode declared on its component"
                              Error sm.Architecture.sm_meta.Base.id
                              (Printf.sprintf
                                 "safety mechanism covers '%s', not a failure \
                                  mode of component '%s'"
                                 fmid
                                 (Architecture.component_id c)))
                        sm.Architecture.covers)
                    c.Architecture.safety_mechanisms;
                  (* Hazard links on failure modes must resolve to situations. *)
                  List.iter
                    (fun (fm : Architecture.failure_mode) ->
                      List.iter
                        (fun hid ->
                          match Model.lookup idx hid with
                          | Some (Model.E_hazard (Hazard.Situation _)) -> ()
                          | Some _ ->
                              add "SSAM005" Error
                                fm.Architecture.fm_meta.Base.id
                                (Printf.sprintf
                                   "'%s' is not a hazardous situation" hid)
                          | None ->
                              add "SSAM005" Error
                                fm.Architecture.fm_meta.Base.id
                                (Printf.sprintf
                                   "dangling hazard reference '%s'" hid))
                        fm.Architecture.hazards)
                    c.Architecture.failure_modes)
                root)
        p.Architecture.elements;
      List.iter
        (fun (i : Architecture.package_interface) ->
          List.iter
            (fun id -> check_ref i.Architecture.interface_meta.Base.id "export" id)
            i.Architecture.exports)
        p.Architecture.interfaces)
    model.Model.component_packages;
  (* Requirement interfaces and relationships. *)
  List.iter
    (fun (p : Requirement.package) ->
      List.iter
        (function
          | Requirement.Relationship r ->
              check_ref r.Requirement.rel_meta.Base.id "requirement source"
                r.Requirement.source;
              check_ref r.Requirement.rel_meta.Base.id "requirement target"
                r.Requirement.target
          | Requirement.Requirement _ -> ())
        p.Requirement.elements;
      List.iter
        (fun (i : Requirement.package_interface) ->
          List.iter
            (fun id ->
              check_ref i.Requirement.interface_meta.Base.id "export" id)
            i.Requirement.exports)
        p.Requirement.interfaces)
    model.Model.requirement_packages;
  (* Hazard mitigation links. *)
  List.iter
    (fun (p : Hazard.package) ->
      List.iter
        (fun (m : Hazard.control_measure) ->
          List.iter
            (fun id -> check_ref m.Hazard.cm_meta.Base.id "mitigates" id)
            m.Hazard.mitigates)
        (Hazard.measures p))
    model.Model.hazard_packages;
  (* MBSA package references and traces. *)
  List.iter
    (fun (p : Mbsa.package) ->
      let pid = p.Mbsa.package_meta.Base.id in
      List.iter (check_ref pid "requirement package") p.Mbsa.requirement_packages;
      List.iter (check_ref pid "hazard package") p.Mbsa.hazard_packages;
      List.iter (check_ref pid "component package") p.Mbsa.component_packages;
      List.iter
        (fun (t : Mbsa.trace_link) ->
          check_ref t.Mbsa.tl_meta.Base.id "trace source" t.Mbsa.trace_source;
          check_ref t.Mbsa.tl_meta.Base.id "trace target" t.Mbsa.trace_target)
        p.Mbsa.traces)
    model.Model.mbsa_packages

let check_hazard_numeric model (add : adder) =
  List.iter
    (fun (p : Hazard.package) ->
      List.iter
        (fun (s : Hazard.hazardous_situation) ->
          match s.Hazard.probability with
          | Some p when p < 0.0 || p > 1.0 ->
              add "SSAM006" Error s.Hazard.hs_meta.Base.id
                (Printf.sprintf "probability %g outside [0,1]" p)
          | Some _ | None -> ())
        (Hazard.situations p))
    model.Model.hazard_packages

(* SSAM008: a leaf component of a wired package that no relationship
   touches is unreachable by any analysis path.  The connection graph is
   the shared {!Graph.Digraph} kernel (the same one the path FMEA's
   dominator analysis interns), so "touched by a relationship" is an
   O(1) interning lookup instead of a hand-rolled endpoint hashtable. *)
let check_reachability model (add : adder) =
  List.iter
    (fun (p : Architecture.package) ->
      let edges = ref [] in
      let note (r : Architecture.relationship) =
        edges := (r.Architecture.from_component, r.Architecture.to_component)
                 :: !edges
      in
      List.iter note (Architecture.relationships p);
      List.iter
        (fun root ->
          Architecture.iter_components
            (fun c -> List.iter note c.Architecture.connections)
            root)
        (Architecture.top_components p);
      let g = Graph.Digraph.of_edges (List.rev !edges) in
      if Graph.Digraph.node_count g > 0 then
        List.iter
          (fun root ->
            List.iter
              (fun (leaf : Architecture.component) ->
                let id = Architecture.component_id leaf in
                if Graph.Digraph.index g id = None then
                  add "SSAM008"
                    ~hint:"connect the component with a relationship or \
                           remove it"
                    Warning id
                    "component is not an endpoint of any relationship \
                     (unreachable in the architecture)")
              (Architecture.leaf_components root))
          (Architecture.top_components p))
    model.Model.component_packages

(* SSAM009: failure modes with no FIT row to distribute. *)
let check_fit_rows model (add : adder) =
  List.iter
    (fun (c : Architecture.component) ->
      if c.Architecture.failure_modes <> [] && c.Architecture.fit = 0.0 then
        add "SSAM009"
          ~hint:"add a FIT row for the component's type to the reliability \
                 model (DECISIVE Step 3)"
          Warning
          (Architecture.component_id c)
          (Printf.sprintf
             "declares %d failure mode(s) but has zero FIT — no FIT row \
              was aggregated"
             (List.length c.Architecture.failure_modes)))
    (Model.components model)

(* SSAM010: an integrity target on a component is vacuous until a safety
   requirement is allocated to it (Allocates trace in an MBSA package). *)
let check_allocations model (add : adder) =
  let allocated = Hashtbl.create 31 in
  List.iter
    (fun (p : Mbsa.package) ->
      List.iter
        (fun (t : Mbsa.trace_link) ->
          if t.Mbsa.trace_kind = Mbsa.Allocates then
            Hashtbl.replace allocated t.Mbsa.trace_target ())
        p.Mbsa.traces)
    model.Model.mbsa_packages;
  List.iter
    (fun (c : Architecture.component) ->
      match c.Architecture.integrity with
      | Some lvl when lvl <> Requirement.QM ->
          let id = Architecture.component_id c in
          if not (Hashtbl.mem allocated id) then
            add "SSAM010"
              ~hint:"allocate a safety requirement to the component with an \
                     Allocates trace link"
              Warning id
              (Printf.sprintf
                 "integrity target %s but no safety requirement is allocated"
                 (Requirement.integrity_level_to_string lvl))
      | Some _ | None -> ())
    (Model.components model)

let findings model =
  let acc = ref [] in
  let add : adder =
   fun rule ?hint severity element message ->
    acc :=
      {
        f_rule = rule;
        f_severity = severity;
        f_element = element;
        f_message = message;
        f_hint = hint;
      }
      :: !acc
  in
  check_duplicates (collect_ids model) add;
  let idx = Model.index model in
  List.iter
    (fun (p : Architecture.package) ->
      List.iter
        (fun c -> Architecture.iter_components (check_numeric_component add) c)
        (Architecture.top_components p))
    model.Model.component_packages;
  check_hazard_numeric model add;
  check_references model idx add;
  check_reachability model add;
  check_fit_rows model add;
  check_allocations model add;
  let all = List.rev !acc in
  List.filter (fun f -> f.f_severity = Error) all
  @ List.filter (fun f -> f.f_severity = Warning) all

let is_valid model =
  List.for_all (fun f -> f.f_severity <> Error) (findings model)
