open Ssam

type options = { exclude : string list; recurse : bool }

let default_options = { exclude = []; recurse = true }

let max_paths = 20_000

exception Too_many_paths

(* Child-level connection graph of a composite component.  Edges whose
   endpoint is the composite itself mark the input/output boundary. *)
let child_graph (c : Architecture.component) =
  let self = Architecture.component_id c in
  let child_ids = List.map Architecture.component_id c.Architecture.children in
  let is_child id = List.exists (String.equal id) child_ids in
  let edges = ref [] in
  let boundary_in = ref [] in
  let boundary_out = ref [] in
  List.iter
    (fun (r : Architecture.relationship) ->
      let f = r.Architecture.from_component and t = r.Architecture.to_component in
      if String.equal f self && is_child t then boundary_in := t :: !boundary_in
      else if String.equal t self && is_child f then
        boundary_out := f :: !boundary_out
      else if is_child f && is_child t then edges := (f, t) :: !edges)
    c.Architecture.connections;
  (child_ids, List.rev !edges, List.rev !boundary_in, List.rev !boundary_out)

(* The interned CSR digraph of the child connections, with the
   input/output boundary resolved to source/sink node lists.  When a
   boundary side is undeclared it falls back to degree: children with no
   incoming (resp. outgoing) edges. *)
let child_digraph (c : Architecture.component) =
  let child_ids, edges, boundary_in, boundary_out = child_graph c in
  let g = Graph.Digraph.of_edges ~nodes:child_ids edges in
  let index id =
    match Graph.Digraph.index g id with
    | Some i -> i
    | None -> assert false (* every child id was interned via ~nodes *)
  in
  let degree_filter deg =
    List.filter_map
      (fun id -> if deg (index id) = 0 then Some (index id) else None)
      child_ids
  in
  let resolve boundary deg =
    match boundary with
    | [] -> degree_filter deg
    | ids -> List.map index (List.sort_uniq String.compare ids)
  in
  let sources = resolve boundary_in (Graph.Digraph.in_degree g) in
  let sinks = resolve boundary_out (Graph.Digraph.out_degree g) in
  (g, sources, sinks)

let child_structure = child_digraph

(* ---------- simple-path enumeration ----------

   Exponential and capped at [max_paths]; kept for {!paths}, whose
   consumers (the FTA bridge) genuinely want the path lists. *)

let enumerate_paths g ~sources ~sinks =
  let n = Graph.Digraph.node_count g in
  let is_sink = Graph.Bitset.create n in
  List.iter (Graph.Bitset.add is_sink) sinks;
  let on_path = Array.make n false in
  let count = ref 0 in
  let results = ref [] in
  let rec dfs path node =
    if not on_path.(node) then begin (* simple paths only *)
      on_path.(node) <- true;
      let path = node :: path in
      if Graph.Bitset.mem is_sink node then begin
        incr count;
        if !count > max_paths then raise Too_many_paths;
        results := List.rev_map (Graph.Digraph.name g) path :: !results
      end;
      (* A sink may still have successors; continue exploring. *)
      Array.iter (dfs path) (Graph.Digraph.successors g node);
      on_path.(node) <- false
    end
  in
  List.iter (dfs []) sources;
  List.rev !results

let paths (c : Architecture.component) =
  let g, sources, sinks = child_digraph c in
  let find id =
    List.find
      (fun ch -> String.equal (Architecture.component_id ch) id)
      c.Architecture.children
  in
  List.map (List.map find) (enumerate_paths g ~sources ~sinks)

(* ---------- dominator-based classification ---------- *)

let single_points (c : Architecture.component) =
  let g, sources, sinks = child_digraph c in
  match Graph.Dominators.on_every_path g ~sources ~sinks with
  | None -> []
  | Some on ->
      List.map (Graph.Digraph.name g) (Graph.Bitset.to_list on)
      |> List.sort String.compare

(* Whether a child lies on every input→output path of [c]: it dominates
   the super-sink.  False for every child when there is no path at all. *)
let on_every_path (c : Architecture.component) =
  let g, sources, sinks = child_digraph c in
  match Graph.Dominators.on_every_path g ~sources ~sinks with
  | None -> fun _ -> false
  | Some on ->
      fun id ->
        (match Graph.Digraph.index g id with
        | Some i -> Graph.Bitset.mem on i
        | None -> false)

(* A child is never a single point if all its declared functions are
   redundant (1oo2 / 1oo3 / 2oo3). *)
let redundant (child : Architecture.component) =
  child.Architecture.functions <> []
  && List.for_all
       (fun (f : Architecture.func) ->
         match f.Architecture.tolerance with
         | Architecture.OneOoOne -> false
         | Architecture.OneOoTwo | Architecture.OneOoThree
         | Architecture.TwoOoThree ->
             true)
       child.Architecture.functions

let rec analyse_into ~options acc (c : Architecture.component) =
  let single_point = on_every_path c in
  let acc =
    List.fold_left
      (fun acc (child : Architecture.component) ->
        let cid = Architecture.component_id child in
        let excluded = List.exists (String.equal cid) options.exclude in
        let acc =
          List.fold_left
            (fun acc (fm : Architecture.failure_mode) ->
              let fm_name = Base.display_name fm.Architecture.fm_meta in
              let row =
                if excluded then
                  Table.make_row
                    ~warning:"component excluded from analysis by assumption"
                    ~component:cid ~component_fit:child.Architecture.fit
                    ~failure_mode:fm_name
                    ~distribution_pct:fm.Architecture.distribution_pct
                    ~safety_related:false ()
                else if Architecture.is_loss_like fm.Architecture.nature then
                  if redundant child then
                    Table.make_row
                      ~impact:"tolerated by redundant function (no single point)"
                      ~component:cid ~component_fit:child.Architecture.fit
                      ~failure_mode:fm_name
                      ~distribution_pct:fm.Architecture.distribution_pct
                      ~safety_related:false ()
                  else if single_point cid then
                    Table.make_row
                      ~impact:"breaks every input-output path (single point)"
                      ~component:cid ~component_fit:child.Architecture.fit
                      ~failure_mode:fm_name
                      ~distribution_pct:fm.Architecture.distribution_pct
                      ~safety_related:true ()
                  else
                    Table.make_row ~impact:"alternative paths remain"
                      ~component:cid ~component_fit:child.Architecture.fit
                      ~failure_mode:fm_name
                      ~distribution_pct:fm.Architecture.distribution_pct
                      ~safety_related:false ()
                else
                  Table.make_row
                    ~warning:
                      (Printf.sprintf
                         "failure mode '%s' is not loss-of-function; path \
                          analysis cannot classify it — review manually"
                         fm_name)
                    ~component:cid ~component_fit:child.Architecture.fit
                    ~failure_mode:fm_name
                    ~distribution_pct:fm.Architecture.distribution_pct
                    ~safety_related:false ()
              in
              row :: acc)
            acc child.Architecture.failure_modes
        in
        if options.recurse && child.Architecture.children <> [] then
          analyse_into ~options acc child
        else acc)
      acc c.Architecture.children
  in
  acc

let analyse ?(options = default_options) c =
  let rows = List.rev (analyse_into ~options [] c) in
  { Table.system_name = Architecture.component_name c; rows }

let wrap_flat_package (p : Architecture.package) =
  let name = Base.display_name p.Architecture.package_meta in
  Architecture.component ~component_type:Architecture.System
    ~children:(Architecture.top_components p)
    ~connections:(Architecture.relationships p)
    ~meta:(Base.meta ~name ("synthetic-root:" ^ name))
    ()

let analyse_package_with ~analyse_component (p : Architecture.package) =
  let tops = Architecture.top_components p in
  let composite, flat =
    List.partition (fun c -> c.Architecture.children <> []) tops
  in
  let tables =
    List.map analyse_component composite
    @
    if flat <> [] || Architecture.relationships p <> [] then
      [ analyse_component (wrap_flat_package p) ]
    else []
  in
  let rows = List.concat_map (fun t -> t.Table.rows) tables in
  {
    Table.system_name = Base.display_name p.Architecture.package_meta;
    rows;
  }

let analyse_package ?(options = default_options) p =
  analyse_package_with ~analyse_component:(fun c -> analyse ~options c) p
