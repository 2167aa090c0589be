(* Tests for the shared graph kernels — bitsets, the CSR digraph,
   Tarjan SCC, Lengauer–Tarjan dominators — and the dominator-based
   path FMEA built on them, differentially tested against the
   enumeration reference on random (also cyclic) diagrams. *)

open Ssam

(* ---------- bitset ---------- *)

let test_bitset () =
  let s = Graph.Bitset.create 200 in
  Alcotest.(check int) "universe" 200 (Graph.Bitset.length s);
  Alcotest.(check int) "empty" 0 (Graph.Bitset.cardinal s);
  List.iter (Graph.Bitset.add s) [ 0; 62; 63; 64; 199 ];
  Alcotest.(check int) "cardinal" 5 (Graph.Bitset.cardinal s);
  Alcotest.(check bool) "mem 63" true (Graph.Bitset.mem s 63);
  Alcotest.(check bool) "not mem 1" false (Graph.Bitset.mem s 1);
  Graph.Bitset.remove s 63;
  Alcotest.(check (list int)) "to_list sorted" [ 0; 62; 64; 199 ]
    (Graph.Bitset.to_list s);
  let t = Graph.Bitset.create 200 in
  Graph.Bitset.add t 5;
  Alcotest.(check bool) "union changes" true
    (Graph.Bitset.union_into ~into:t s);
  Alcotest.(check bool) "union idempotent" false
    (Graph.Bitset.union_into ~into:t s);
  Alcotest.(check (list int)) "union members" [ 0; 5; 62; 64; 199 ]
    (Graph.Bitset.to_list t);
  List.iter
    (fun (label, x, n) -> Alcotest.(check int) label n (Graph.Bitset.popcount x))
    [ ("popcount -1", -1, 63); ("popcount min_int", min_int, 1);
      ("popcount max_int", max_int, 62) ]

(* The shared word popcount against the bit-clearing loop it replaced,
   on arbitrary words and the edges of the 63-bit range. *)
let prop_popcount =
  let reference x =
    let rec go acc x = if x = 0 then acc else go (acc + 1) (x land (x - 1)) in
    go 0 x
  in
  QCheck.Test.make ~name:"Bitset.popcount = bit-clearing count" ~count:2000
    QCheck.(
      oneof
        [ int; oneofl [ 0; 1; -1; min_int; max_int; 1 lsl 61; 0x5555_5555_5555_5555 ] ])
    (fun x -> Graph.Bitset.popcount x = reference x)

(* ---------- digraph ---------- *)

let abc_graph =
  Graph.Digraph.of_edges ~nodes:[ "a" ]
    [ ("a", "b"); ("b", "c"); ("a", "c"); ("d", "c") ]

let test_digraph_basics () =
  let g = abc_graph in
  Alcotest.(check int) "nodes" 4 (Graph.Digraph.node_count g);
  Alcotest.(check int) "edges" 4 (Graph.Digraph.edge_count g);
  (* Interning order: the nodes list first, then edge-endpoint first
     occurrence. *)
  Alcotest.(check (list string)) "index order" [ "a"; "b"; "c"; "d" ]
    (Graph.Digraph.nodes g);
  Alcotest.(check (option int)) "index" (Some 2) (Graph.Digraph.index g "c");
  Alcotest.(check (option int)) "unknown" None (Graph.Digraph.index g "zz");
  Alcotest.(check string) "name" "d" (Graph.Digraph.name g 3);
  Alcotest.(check (list string)) "successors in edge order" [ "b"; "c" ]
    (Graph.Digraph.successor_names g "a");
  Alcotest.(check (list string)) "predecessors" [ "b"; "a"; "d" ]
    (Graph.Digraph.predecessor_names g "c");
  Alcotest.(check (list string)) "unknown id" []
    (Graph.Digraph.successor_names g "zz");
  Alcotest.(check int) "out degree" 2
    (Graph.Digraph.out_degree g (Option.get (Graph.Digraph.index g "a")));
  Alcotest.(check int) "in degree" 3
    (Graph.Digraph.in_degree g (Option.get (Graph.Digraph.index g "c")))

let test_reachability () =
  let g = abc_graph in
  let idx id = Option.get (Graph.Digraph.index g id) in
  Alcotest.(check (list int)) "forward from a"
    [ idx "a"; idx "b"; idx "c" ]
    (List.sort Int.compare
       (Graph.Bitset.to_list (Graph.Digraph.reachable_from g [ idx "a" ])));
  Alcotest.(check (list int)) "backward from c"
    [ idx "a"; idx "b"; idx "c"; idx "d" ]
    (List.sort Int.compare
       (Graph.Bitset.to_list (Graph.Digraph.coreachable_of g [ idx "c" ])))

let test_undirected_components () =
  let g =
    Graph.Digraph.of_edges ~nodes:[ "lone" ]
      [ ("a", "b"); ("c", "b"); ("x", "y") ]
  in
  let comp, count = Graph.Digraph.undirected_components g in
  Alcotest.(check int) "three components" 3 count;
  let of_id id = comp.(Option.get (Graph.Digraph.index g id)) in
  (* Deterministic numbering by smallest member index: lone=0, {a,b,c}=1,
     {x,y}=2. *)
  Alcotest.(check int) "lone first" 0 (of_id "lone");
  Alcotest.(check int) "a" 1 (of_id "a");
  Alcotest.(check int) "b merged" 1 (of_id "b");
  Alcotest.(check int) "c merged" 1 (of_id "c");
  Alcotest.(check int) "x" 2 (of_id "x");
  Alcotest.(check int) "y" 2 (of_id "y")

(* ---------- SCC ---------- *)

let test_scc () =
  let g =
    Graph.Digraph.of_edges
      [ ("a", "b"); ("b", "c"); ("c", "a"); ("c", "d"); ("d", "e"); ("e", "d") ]
  in
  let r = Graph.Scc.compute g in
  Alcotest.(check int) "two SCCs" 2 r.Graph.Scc.count;
  let scc id = r.Graph.Scc.component.(Option.get (Graph.Digraph.index g id)) in
  Alcotest.(check bool) "abc together" true (scc "a" = scc "b" && scc "b" = scc "c");
  Alcotest.(check bool) "de together" true (scc "d" = scc "e");
  (* Reverse topological: the edge abc -> de forces abc's id higher. *)
  Alcotest.(check bool) "reverse topological" true (scc "a" > scc "d");
  let dag = Graph.Scc.condense g r in
  Alcotest.(check int) "condensed nodes" 2 (Graph.Digraph.node_count dag);
  Alcotest.(check int) "condensed edges" 1 (Graph.Digraph.edge_count dag);
  (* Named after the lowest-index member of each SCC. *)
  Alcotest.(check (list string)) "edge a->d" [ "d" ]
    (Graph.Digraph.successor_names dag "a")

(* ---------- dominators ---------- *)

let test_dominators_diamond () =
  let g =
    Graph.Digraph.of_edges
      [ ("s", "a"); ("s", "b"); ("a", "t"); ("b", "t") ]
  in
  let idx id = Option.get (Graph.Digraph.index g id) in
  let idom = Graph.Dominators.idoms g ~root:(idx "s") in
  Alcotest.(check int) "root self" (idx "s") idom.(idx "s");
  Alcotest.(check int) "idom a = s" (idx "s") idom.(idx "a");
  Alcotest.(check int) "idom b = s" (idx "s") idom.(idx "b");
  Alcotest.(check int) "idom t = s (skips the diamond)" (idx "s")
    idom.(idx "t");
  Alcotest.(check (list int)) "dominator chain of t" [ idx "t"; idx "s" ]
    (Graph.Dominators.dominators ~idom (idx "t"))

let names_of_set g set =
  List.map (Graph.Digraph.name g) (Graph.Bitset.to_list set)

let test_on_every_path () =
  let g =
    Graph.Digraph.of_edges
      [ ("s", "a"); ("s", "b"); ("a", "m"); ("b", "m"); ("m", "t") ]
  in
  let idx id = Option.get (Graph.Digraph.index g id) in
  match
    Graph.Dominators.on_every_path g ~sources:[ idx "s" ] ~sinks:[ idx "t" ]
  with
  | None -> Alcotest.fail "expected a path"
  | Some set ->
      Alcotest.(check (list string)) "s, m, t on every path" [ "s"; "m"; "t" ]
        (List.sort (fun a b -> Int.compare (idx a) (idx b)) (names_of_set g set))

let test_on_every_path_none () =
  let g = Graph.Digraph.of_edges ~nodes:[ "s"; "t" ] [ ("t", "s") ] in
  let idx id = Option.get (Graph.Digraph.index g id) in
  Alcotest.(check bool) "no s->t path" true
    (Graph.Dominators.on_every_path g ~sources:[ idx "s" ] ~sinks:[ idx "t" ]
    = None)

let test_on_every_path_cyclic () =
  (* s -> a <-> b -> t: the cycle does not create an alternative route,
     so all four nodes are on every simple path. *)
  let g =
    Graph.Digraph.of_edges
      [ ("s", "a"); ("a", "b"); ("b", "a"); ("b", "t") ]
  in
  let idx id = Option.get (Graph.Digraph.index g id) in
  match
    Graph.Dominators.on_every_path g ~sources:[ idx "s" ] ~sinks:[ idx "t" ]
  with
  | None -> Alcotest.fail "expected a path"
  | Some set ->
      Alcotest.(check (list string)) "whole chain" [ "s"; "a"; "b"; "t" ]
        (List.sort (fun a b -> Int.compare (idx a) (idx b)) (names_of_set g set))

let test_order_hint () =
  (* s → {a, b} → m → t: chain members (s, m, t) sort before the
     parallel pair, all reachable nodes are present exactly once. *)
  let g =
    Graph.Digraph.of_edges ~nodes:[ "x" ]
      [ ("s", "a"); ("s", "b"); ("a", "m"); ("b", "m"); ("m", "t") ]
  in
  let idx id = Option.get (Graph.Digraph.index g id) in
  let hint = Graph.Dominators.order_hint g ~sources:[ idx "s" ] in
  Alcotest.(check int) "every node listed" (Graph.Digraph.node_count g)
    (List.length hint);
  Alcotest.(check int) "no duplicates"
    (Graph.Digraph.node_count g)
    (List.length (List.sort_uniq Int.compare hint));
  let pos id =
    let rec go i = function
      | [] -> Alcotest.failf "node %s missing from hint" id
      | x :: _ when x = idx id -> i
      | _ :: rest -> go (i + 1) rest
    in
    go 0 hint
  in
  Alcotest.(check bool) "source first" true (pos "s" = 0);
  (* a, b and m share chain length 2 (none dominates another's path),
     so BFS depth breaks the tie; t's chain s→m→t is strictly longer. *)
  Alcotest.(check bool) "dominator chain order" true
    (pos "a" < pos "m" && pos "b" < pos "m" && pos "m" < pos "t");
  (* The unreachable node trails the reachable ones. *)
  Alcotest.(check bool) "unreachable last" true
    (pos "x" = Graph.Digraph.node_count g - 1);
  (* No sources: plain index order. *)
  Alcotest.(check (list int)) "no sources -> index order"
    (List.init (Graph.Digraph.node_count g) Fun.id)
    (Graph.Dominators.order_hint g ~sources:[])

(* ---------- path FMEA on the generator architectures ---------- *)

let test_single_points_diamond () =
  let sys = Fixtures.Generator.diamond_arch ~stages:3 in
  Alcotest.(check int) "2^3 paths" 8
    (Fixtures.Generator.diamond_path_count ~stages:3);
  Alcotest.(check (list string)) "junctions only" [ "J0"; "J1"; "J2"; "J3" ]
    (Fmea.Path_fmea.single_points sys)

let test_single_points_grid () =
  let sys = Fixtures.Generator.grid_arch ~rows:3 ~cols:3 in
  Alcotest.(check int) "C(4,2) paths" 6
    (Fixtures.Generator.grid_path_count ~rows:3 ~cols:3);
  Alcotest.(check (list string)) "the two corners" [ "B0_0"; "B2_2" ]
    (Fmea.Path_fmea.single_points sys)

(* Regression for the silent-overflow bug: an 18-stage diamond has
   2^18 = 262 144 simple paths — far beyond the enumeration cap.  The
   old [analyse] swallowed [Too_many_paths] into "alternative paths
   remain", reporting {e nothing} as safety-related.  The dominator
   route classifies it exactly. *)

let test_beyond_cap_exact () =
  let stages = 18 in
  let sys = Fixtures.Generator.diamond_arch ~stages in
  Alcotest.(check bool) "beyond the enumeration cap" true
    (Fixtures.Generator.diamond_path_count ~stages > Fmea.Path_fmea.max_paths);
  (match Fmea.Path_fmea.paths sys with
  | exception Fmea.Path_fmea.Too_many_paths -> ()
  | _ -> Alcotest.fail "expected Too_many_paths");
  let t = Fmea.Path_fmea.analyse sys in
  Alcotest.(check (list string)) "every junction is a single point"
    (List.init (stages + 1) (Printf.sprintf "J%d"))
    (Fmea.Table.safety_related_components t);
  Alcotest.(check int) "no warnings" 0 (List.length (Fmea.Table.warnings t))

let test_enumeration_overflow_warns () =
  (* The enumeration reference no longer fakes a verdict on overflow:
     every loss-like row gets an explicit warning instead. *)
  let sys = Fixtures.Generator.diamond_arch ~stages:18 in
  let t = Oracle.Enumerated_path_fmea.analyse sys in
  Alcotest.(check (list string)) "no silent verdicts" []
    (Fmea.Table.safety_related_components t);
  let contains ~sub s =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  let warnings = Fmea.Table.warnings t in
  Alcotest.(check int) "one warning per loss row" (1 + (18 * 3))
    (List.length warnings);
  List.iter
    (fun (_, w) ->
      Alcotest.(check bool) "mentions the overflow" true
        (contains ~sub:"overflow" w))
    warnings

(* ---------- differential property: dominators vs enumeration ---------- *)

let leaf id =
  Architecture.component ~fit:10.0
    ~failure_modes:
      [
        Architecture.failure_mode
          ~meta:(Base.meta ~name:"Loss" (id ^ ":loss"))
          ~nature:Architecture.Loss_of_function ~distribution_pct:100.0 ();
      ]
    ~meta:(Base.meta ~name:id id) ()

(* A layered diagram with mask-selected inter-stage edges (plus a
   repair pass so no node dangles), optionally with a feedback edge
   from the last stage back to the first — cycles must not perturb the
   classification. *)
let layered_system widths mask feedback =
  let widths = List.map (fun w -> Int.max 1 (Int.min 3 w)) widths in
  let root = "root" in
  let stage_ids =
    List.mapi
      (fun i w -> List.init w (fun j -> Printf.sprintf "s%d_%d" i j))
      widths
  in
  let children = List.map leaf (List.concat stage_ids) in
  let connections = ref [] in
  let added = Hashtbl.create 64 in
  let k = ref 0 in
  let add a b =
    if not (Hashtbl.mem added (a, b)) then begin
      Hashtbl.add added (a, b) ();
      incr k;
      connections :=
        Architecture.relationship
          ~meta:(Base.meta (Printf.sprintf "c%d" !k))
          ~from_component:a ~to_component:b ()
        :: !connections
    end
  in
  let bit =
    let counter = ref 0 in
    fun () ->
      let b = (mask lsr (!counter mod 61)) land 1 = 1 in
      incr counter;
      b
  in
  (match stage_ids with
  | first :: _ -> List.iter (add root) first
  | [] -> ());
  let rec wire = function
    | a :: (b :: _ as rest) ->
        List.iter
          (fun x -> List.iter (fun y -> if bit () then add x y) b)
          a;
        (* Repair: every stage node keeps at least one edge each way. *)
        List.iter
          (fun x ->
            if not (List.exists (fun y -> Hashtbl.mem added (x, y)) b) then
              add x (List.hd b))
          a;
        List.iter
          (fun y ->
            if not (List.exists (fun x -> Hashtbl.mem added (x, y)) a) then
              add (List.hd a) y)
          b;
        wire rest
    | [ last ] -> List.iter (fun x -> add x root) last
    | [] -> ()
  in
  wire stage_ids;
  (if feedback then
     match (stage_ids, List.rev stage_ids) with
     | first :: _, last :: _ when List.length stage_ids >= 2 ->
         add (List.hd last) (List.hd first)
     | _ -> ());
  Architecture.component ~component_type:Architecture.System ~children
    ~connections:(List.rev !connections)
    ~meta:(Base.meta ~name:root root) ()

let prop_dominators_match_enumeration =
  QCheck.Test.make
    ~name:"dominator FMEA = enumeration FMEA (random layered, jobs 1 and 4)"
    ~count:60
    QCheck.(
      triple
        (list_of_size (QCheck.Gen.int_range 1 5) (QCheck.int_range 1 3))
        (QCheck.int_range 0 0x3FFFFFFF) QCheck.bool)
    (fun (widths, mask, feedback) ->
      let sys = layered_system widths mask feedback in
      let reference = Oracle.Enumerated_path_fmea.analyse sys in
      let saved = Exec.default_jobs () in
      Fun.protect
        ~finally:(fun () -> Exec.set_default_jobs saved)
        (fun () ->
          List.for_all
            (fun jobs ->
              Exec.set_default_jobs jobs;
              Fmea.Table.equal (Fmea.Path_fmea.analyse sys) reference)
            [ 1; 4 ]))

let suite =
  [
    Alcotest.test_case "bitset" `Quick test_bitset;
    QCheck_alcotest.to_alcotest prop_popcount;
    Alcotest.test_case "digraph basics" `Quick test_digraph_basics;
    Alcotest.test_case "reachability" `Quick test_reachability;
    Alcotest.test_case "undirected components" `Quick test_undirected_components;
    Alcotest.test_case "scc + condensation" `Quick test_scc;
    Alcotest.test_case "dominators diamond" `Quick test_dominators_diamond;
    Alcotest.test_case "order_hint" `Quick test_order_hint;
    Alcotest.test_case "on_every_path" `Quick test_on_every_path;
    Alcotest.test_case "on_every_path none" `Quick test_on_every_path_none;
    Alcotest.test_case "on_every_path cyclic" `Quick test_on_every_path_cyclic;
    Alcotest.test_case "diamond single points" `Quick test_single_points_diamond;
    Alcotest.test_case "grid single points" `Quick test_single_points_grid;
    Alcotest.test_case "beyond-cap exact (regression)" `Quick test_beyond_cap_exact;
    Alcotest.test_case "enumeration overflow warns" `Quick
      test_enumeration_overflow_warns;
    QCheck_alcotest.to_alcotest prop_dominators_match_enumeration;
  ]
