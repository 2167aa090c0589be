type solution = { sets : Graph.Bitset.t array; stats : Fixpoint.stats }

(* A first-class bitset lattice over a fixed universe.  [bottom] is one
   shared all-clear set which the engine never mutates (join copies). *)
let bitset_lattice universe =
  (module struct
    type t = Graph.Bitset.t

    let bottom = Graph.Bitset.create universe

    let join a b =
      let c = Graph.Bitset.copy a in
      ignore (Graph.Bitset.union_into ~into:c b);
      c

    let leq = Graph.Bitset.subset
  end : Fixpoint.LATTICE
    with type t = Graph.Bitset.t)

let forward_taint ?jobs (m : Model.t) =
  let universe = Model.mode_count m in
  let lat = bitset_lattice universe in
  let init n =
    let s = Graph.Bitset.create universe in
    List.iter (Graph.Bitset.add s) m.Model.node_modes.(n);
    s
  in
  let sets, stats =
    Fixpoint.solve lat ?jobs ~direction:Fixpoint.Forward ~init
      ~transfer:(fun _ v -> v)
      m.Model.graph
  in
  { sets; stats }

let backward_reach ?jobs (m : Model.t) =
  let universe = List.length m.Model.outputs in
  let lat = bitset_lattice universe in
  let out_bits = Array.make (Graph.Digraph.node_count m.Model.graph) [] in
  List.iteri
    (fun oi (_, node) -> out_bits.(node) <- oi :: out_bits.(node))
    m.Model.outputs;
  let init n =
    let s = Graph.Bitset.create universe in
    List.iter (Graph.Bitset.add s) out_bits.(n);
    s
  in
  let sets, stats =
    Fixpoint.solve lat ?jobs ~direction:Fixpoint.Backward ~init
      ~transfer:(fun _ v -> v)
      m.Model.graph
  in
  { sets; stats }

let forward_explains (m : Model.t) (sol : solution) ~output =
  match Model.find_output m output with
  | None -> []
  | Some node ->
      List.map
        (fun i -> m.Model.modes.(i))
        (Graph.Bitset.to_list sol.sets.(node))

let backward_explains (m : Model.t) (sol : solution) ~output =
  match Model.output_index m output with
  | None -> []
  | Some oi ->
      List.filter
        (fun (md : Model.mode) ->
          Graph.Bitset.mem sol.sets.(md.Model.m_node) oi)
        (Array.to_list m.Model.modes)

let agreement (m : Model.t) ~forward ~backward =
  List.fold_left
    (fun (agree, pairs) (output, _) ->
      let fwd =
        List.map (fun (md : Model.mode) -> md.Model.m_index)
          (forward_explains m forward ~output)
      in
      let bwd =
        List.map (fun (md : Model.mode) -> md.Model.m_index)
          (backward_explains m backward ~output)
      in
      (agree && fwd = bwd, pairs + List.length fwd))
    (true, 0) m.Model.outputs

let reaches_output (m : Model.t) ~(forward : solution) (md : Model.mode) =
  List.exists
    (fun (_, node) -> Graph.Bitset.mem forward.sets.(node) md.Model.m_index)
    m.Model.outputs

let latent_modes (m : Model.t) ~forward =
  List.filter
    (fun md -> not (reaches_output m ~forward md))
    (Array.to_list m.Model.modes)

let silent_outputs (m : Model.t) ~(forward : solution) =
  List.filter_map
    (fun (output, node) ->
      if Graph.Bitset.cardinal forward.sets.(node) = 0 then Some output
      else None)
    m.Model.outputs

let coverage_gaps (m : Model.t) ~forward =
  List.filter
    (fun (md : Model.mode) ->
      md.Model.m_loss_like
      && (not (Graph.Bitset.mem m.Model.redundant md.Model.m_node))
      && reaches_output m ~forward md
      && not (Graph.Bitset.mem m.Model.covered md.Model.m_index))
    (Array.to_list m.Model.modes)

let off_path_mechanisms (m : Model.t) ~(forward : solution) =
  List.concat_map
    (fun (sm_id, host, covers) ->
      List.filter_map
        (fun meta_id ->
          match
            Array.find_opt
              (fun (md : Model.mode) ->
                String.equal md.Model.m_meta_id meta_id)
              m.Model.modes
          with
          | Some md
            when not (Graph.Bitset.mem forward.sets.(host) md.Model.m_index)
            ->
              Some (sm_id, Graph.Digraph.name m.Model.graph host, md)
          | Some _ | None -> None)
        covers)
    m.Model.sms

let integrity_rank = function
  | Ssam.Requirement.QM -> 0
  | Ssam.Requirement.ASIL_A -> 1
  | Ssam.Requirement.ASIL_B -> 2
  | Ssam.Requirement.ASIL_C -> 3
  | Ssam.Requirement.ASIL_D -> 4
  | Ssam.Requirement.SIL n -> n

type integrity_finding = {
  if_component : string;
  allocated : Ssam.Requirement.integrity_level option;
  demanded : Ssam.Requirement.integrity_level;
  via_mode : Model.mode;
  hazard : string;
}

let integrity_violations ?jobs (model : Ssam.Model.t) (m : Model.t) =
  let index = Ssam.Model.index model in
  let level_of_hazard id =
    match Ssam.Model.lookup index id with
    | Some (Ssam.Model.E_hazard (Ssam.Hazard.Situation s)) ->
        Hara.Risk.of_situation s
    | _ -> None
  in
  (* Demands carried by each mode: the worst risk-graph level among the
     hazards its failure mode cites. *)
  let mode_demand =
    Array.map
      (fun (md : Model.mode) ->
        List.fold_left
          (fun acc hz ->
            match level_of_hazard hz with
            | None -> acc
            | Some lvl -> (
                match acc with
                | Some (best, _) when integrity_rank best >= integrity_rank lvl
                  ->
                    acc
                | _ -> Some (lvl, hz)))
          None md.Model.m_hazards)
      m.Model.modes
  in
  let forward = forward_taint ?jobs m in
  let n = Graph.Digraph.node_count m.Model.graph in
  let findings = ref [] in
  for node = 0 to n - 1 do
    let worst = ref None in
    Graph.Bitset.iter
      (fun mi ->
        match mode_demand.(mi) with
        | None -> ()
        | Some (lvl, hz) -> (
            match !worst with
            | Some (best, _, _) when integrity_rank best >= integrity_rank lvl
              ->
                ()
            | _ -> worst := Some (lvl, hz, mi)))
      forward.sets.(node);
    match !worst with
    | None -> ()
    | Some (demanded, hazard, mi) -> (
        let cid = Graph.Digraph.name m.Model.graph node in
        match Ssam.Model.find_component model cid with
        | None -> ()
        | Some c -> (
            match c.Ssam.Architecture.integrity with
            | None -> () (* unallocated: the SSAM pack's business *)
            | Some allocated when
                integrity_rank allocated >= integrity_rank demanded ->
                ()
            | Some allocated ->
                findings :=
                  {
                    if_component = cid;
                    allocated = Some allocated;
                    demanded;
                    via_mode = m.Model.modes.(mi);
                    hazard;
                  }
                  :: !findings))
  done;
  List.rev !findings
