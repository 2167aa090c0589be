module type LATTICE = sig
  type t

  val bottom : t
  val join : t -> t -> t
  val leq : t -> t -> bool
end

type direction = Forward | Backward

type stats = { iterations : int; sccs : int; levels : int }

let cost_key = "dataflow.scc"

(* One SCC solved to local fixpoint.  Cross-SCC inflow only references
   strictly earlier condensation levels, whose values are already
   committed to the shared array before this level's batch is
   dispatched, so parallel tasks read [values] without synchronisation. *)
let solve_scc (type a) (module L : LATTICE with type t = a) ~flow_in ~flow_out
    ~(component : int array) ~(values : a array) ~init ~transfer scc members =
  let local = Hashtbl.create (Array.length members) in
  Array.iter (fun u -> Hashtbl.replace local u (init u)) members;
  let value_of v =
    if component.(v) = scc then Hashtbl.find local v else values.(v)
  in
  let n = Array.length values in
  let queued = Graph.Bitset.create n in
  let queue = Queue.create () in
  Array.iter
    (fun u ->
      Queue.add u queue;
      Graph.Bitset.add queued u)
    members;
  let iters = ref 0 in
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    Graph.Bitset.remove queued u;
    let inflow =
      Array.fold_left
        (fun acc v -> L.join acc (value_of v))
        L.bottom (flow_in u)
    in
    incr iters;
    let old = Hashtbl.find local u in
    (* Join with the old value: values only ascend, so the fixpoint
       terminates on finite-height lattices even for a non-monotone
       transfer. *)
    let nv = L.join old (transfer u inflow) in
    if not (L.leq nv old) then begin
      Hashtbl.replace local u nv;
      Array.iter
        (fun w ->
          if component.(w) = scc && not (Graph.Bitset.mem queued w) then begin
            Queue.add w queue;
            Graph.Bitset.add queued w
          end)
        (flow_out u)
    end
  done;
  (!iters, Array.map (fun u -> (u, Hashtbl.find local u)) members)

let solve (type a) (module L : LATTICE with type t = a) ?jobs ~direction ~init
    ~transfer g =
  let n = Graph.Digraph.node_count g in
  if n = 0 then ([||], { iterations = 0; sccs = 0; levels = 0 })
  else begin
    let flow_in, flow_out =
      match direction with
      | Forward -> (Graph.Digraph.predecessors g, Graph.Digraph.successors g)
      | Backward -> (Graph.Digraph.successors g, Graph.Digraph.predecessors g)
    in
    let { Graph.Scc.component; count } = Graph.Scc.compute g in
    (* Members per SCC, ascending node order (nodes scanned 0..n-1). *)
    let members = Array.make count [] in
    for u = n - 1 downto 0 do
      members.(component.(u)) <- u :: members.(component.(u))
    done;
    let members = Array.map Array.of_list members in
    (* SCC ids are reverse-topological (edge a->b  =>  comp a > comp b),
       so flow order is descending ids forward, ascending backward.
       Walking SCCs in flow order and relaxing downstream gives each SCC
       its condensation level = longest flow path from a source SCC. *)
    let flow_order =
      match direction with
      | Forward -> Array.init count (fun i -> count - 1 - i)
      | Backward -> Array.init count (fun i -> i)
    in
    let level = Array.make count 0 in
    Array.iter
      (fun s ->
        Array.iter
          (fun u ->
            Array.iter
              (fun v ->
                let t = component.(v) in
                if t <> s && level.(t) < level.(s) + 1 then
                  level.(t) <- level.(s) + 1)
              (flow_out u))
          members.(s))
      flow_order;
    let max_level = Array.fold_left max 0 level in
    let buckets = Array.make (max_level + 1) [] in
    (* Fill buckets in reverse flow order so each bucket lists SCCs in
       flow order — deterministic dispatch order per level. *)
    for i = count - 1 downto 0 do
      let s = flow_order.(i) in
      buckets.(level.(s)) <- s :: buckets.(level.(s))
    done;
    let values = Array.make n L.bottom in
    let iterations = ref 0 in
    Array.iter
      (fun sccs ->
        let results =
          Exec.scheduled_map ?jobs ~key:cost_key
            (fun s ->
              solve_scc
                (module L : LATTICE with type t = a)
                ~flow_in ~flow_out ~component ~values ~init ~transfer s
                members.(s))
            sccs
        in
        List.iter
          (fun (iters, vs) ->
            iterations := !iterations + iters;
            Array.iter (fun (u, v) -> values.(u) <- v) vs)
          results)
      buckets;
    (values, { iterations = !iterations; sccs = count; levels = max_level + 1 })
  end
