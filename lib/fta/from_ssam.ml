open Ssam

exception No_paths of string
exception Cyclic of string list

let loss_event_id ~component_id = "loss:" ^ component_id

let loss_rate_fit (c : Architecture.component) =
  if c.Architecture.failure_modes = [] then c.Architecture.fit
  else
    List.fold_left
      (fun acc (fm : Architecture.failure_mode) ->
        if Architecture.is_loss_like fm.Architecture.nature then
          acc
          +. Reliability.Fit.share c.Architecture.fit
               ~distribution_pct:fm.Architecture.distribution_pct
        else acc)
      0.0 c.Architecture.failure_modes

(* Loss of one component: a basic event for leaves; redundant functions
   become k-out-of-N over per-channel events. *)
let component_loss (c : Architecture.component) =
  let cid = Architecture.component_id c in
  let base =
    Fault_tree.basic
      ~description:(Printf.sprintf "loss of function of %s" (Architecture.component_name c))
      ~rate_fit:(loss_rate_fit c)
      (loss_event_id ~component_id:cid)
  in
  let redundancy =
    List.find_map
      (fun (f : Architecture.func) ->
        match f.Architecture.tolerance with
        | Architecture.OneOoOne -> None
        | Architecture.OneOoTwo -> Some (2, 2)
        | Architecture.OneOoThree -> Some (3, 3)
        | Architecture.TwoOoThree -> Some (2, 3)
      )
      c.Architecture.functions
  in
  match redundancy with
  | None -> base
  | Some (k, n) ->
      (* The function survives unless k (or more) of the n channels fail. *)
      let channels =
        List.init n (fun i ->
            Fault_tree.basic
              ~description:
                (Printf.sprintf "channel %d of %s fails" (i + 1)
                   (Architecture.component_name c))
              ~rate_fit:(loss_rate_fit c)
              (Printf.sprintf "%s:ch%d" (loss_event_id ~component_id:cid) (i + 1)))
      in
      Fault_tree.koon (loss_event_id ~component_id:cid ^ ":vote") ~k channels

(* ---------- structural lowering (the Safety_Profile five steps) ------

   [generate] below multiplies the tree out over enumerated simple
   paths — exponential on wide diagrams.  [of_structure] assembles the
   same boolean function compositionally over the child connection
   graph instead:

     U(v) = loss(v)  OR  AND over predecessors p of U(p)

   with U(source) = loss(source) (its input comes from the boundary)
   and TOP = AND over sinks of U(sink).  On a DAG this is equal to the
   AND-over-paths form by distributivity and absorption, and the tree
   is linear in the graph, not in the path count.  Cycles have no
   well-founded U; {!Cyclic} tells the caller to fall back to
   [generate]. *)

(* Kahn's algorithm; parallel edges cancel out because [successors]
   repeats them exactly as often as [in_degree] counts them. *)
let topological_order g =
  let n = Graph.Digraph.node_count g in
  let indeg = Array.init n (Graph.Digraph.in_degree g) in
  let queue = Queue.create () in
  for i = 0 to n - 1 do
    if indeg.(i) = 0 then Queue.add i queue
  done;
  let order = ref [] in
  let seen = ref 0 in
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    incr seen;
    order := u :: !order;
    Array.iter
      (fun v ->
        indeg.(v) <- indeg.(v) - 1;
        if indeg.(v) = 0 then Queue.add v queue)
      (Graph.Digraph.successors g u)
  done;
  if !seen < n then begin
    let stuck = ref [] in
    for i = n - 1 downto 0 do
      if indeg.(i) > 0 then stuck := Graph.Digraph.name g i :: !stuck
    done;
    raise (Cyclic !stuck)
  end;
  List.rev !order

let child_lookup (c : Architecture.component) g =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun ch -> Hashtbl.replace tbl (Architecture.component_id ch) ch)
    c.Architecture.children;
  fun i -> Hashtbl.find tbl (Graph.Digraph.name g i)

let of_structure (c : Architecture.component) =
  let cid = Architecture.component_id c in
  (* 1. index the components into the child connection structure *)
  let g, sources, sinks = Fmea.Path_fmea.child_structure c in
  if sources = [] || sinks = [] then raise (No_paths cid);
  let n = Graph.Digraph.node_count g in
  let child_of = child_lookup c g in
  (* 2. instantiate the per-pattern failure-logic templates *)
  let template = Array.init n (fun i -> component_loss (child_of i)) in
  (* 3. dependency-sort the connections (cycle ⇒ caller falls back) *)
  let order = topological_order g in
  let is_source = Array.make n false in
  List.iter (fun s -> is_source.(s) <- true) sources;
  (* 4. assemble U(v) bottom-up.  [None] is the constant-true U of a
     statically unreachable node; constant-true conjuncts drop out of
     every AND by absorption, exactly as the corresponding missing
     paths never appear in [generate]'s enumeration. *)
  let unreachable : Fault_tree.t option array = Array.make n None in
  List.iter
    (fun v ->
      let u =
        if is_source.(v) then Some template.(v)
        else
          let preds =
            Array.to_list (Graph.Digraph.predecessors g v)
            |> List.sort_uniq compare
          in
          match List.filter_map (fun p -> unreachable.(p)) preds with
          | [] -> None (* no (live) input at all: never reachable *)
          | live ->
              let id = Graph.Digraph.name g v in
              let blocked =
                match live with
                | [ one ] -> one
                | many -> Fault_tree.and_ ("blocked:" ^ id) many
              in
              Some (Fault_tree.or_ ("unreach:" ^ id) [ template.(v); blocked ])
      in
      unreachable.(v) <- u)
    order;
  (* 5. top event: the output is unreachable at every sink (the
     quantification step of the pipeline lives in {!Quant}). *)
  let conjuncts =
    List.filter_map (fun s -> unreachable.(s)) (List.sort_uniq compare sinks)
  in
  match conjuncts with
  | [] -> raise (No_paths cid)
  | [ single ] -> single
  | many -> Fault_tree.and_ (cid ^ "-output-unreachable") many

let event_order (c : Architecture.component) =
  let g, sources, _ = Fmea.Path_fmea.child_structure c in
  let child_of = child_lookup c g in
  Graph.Dominators.order_hint g ~sources
  |> List.concat_map (fun i ->
         Fault_tree.basic_events (component_loss (child_of i))
         |> List.map (fun (e : Fault_tree.event) -> e.Fault_tree.event_id))

let of_diagram ~reliability diagram =
  of_structure (Blockdiag.Transform.functional_root ~reliability diagram)

let generate (c : Architecture.component) =
  let paths = Fmea.Path_fmea.paths c in
  if paths = [] then raise (No_paths (Architecture.component_id c));
  let path_gates =
    List.mapi
      (fun i path ->
        Fault_tree.or_
          (Printf.sprintf "path%d-broken" (i + 1))
          (List.map component_loss path))
      paths
  in
  match path_gates with
  | [ single ] -> single
  | gates ->
      Fault_tree.and_
        (Printf.sprintf "%s-output-unreachable" (Architecture.component_id c))
        gates

let lower_diagram ~reliability diagram =
  let no_paths c = Error (Printf.sprintf "no input-output paths through %s" c) in
  match of_diagram ~reliability diagram with
  | tree -> Ok (tree, `Structural)
  | exception No_paths c -> no_paths c
  | exception Cyclic _ -> (
      (* cycles have no well-founded structural lowering *)
      match generate (Blockdiag.Transform.functional_root ~reliability diagram) with
      | tree -> Ok (tree, `Paths)
      | exception No_paths c -> no_paths c)
