(* Tests for fault trees: construction, minimal cut sets, quantification,
   generation from SSAM and the FMEA cross-check. *)

open Fta

let b ?rate id = Fault_tree.basic ?rate_fit:rate id

(* ---------- construction ---------- *)

let test_builders () =
  let t = Fault_tree.or_ "top" [ b "a"; Fault_tree.and_ "g" [ b "b"; b "c" ] ] in
  Alcotest.(check int) "gates" 2 (Fault_tree.gate_count t);
  Alcotest.(check int) "depth" 3 (Fault_tree.depth t);
  Alcotest.(check int) "events" 3 (List.length (Fault_tree.basic_events t));
  Alcotest.(check bool) "find" true (Option.is_some (Fault_tree.find_event t "b"));
  Alcotest.check_raises "empty gate"
    (Invalid_argument "Fault_tree.and_ g: no children") (fun () ->
      ignore (Fault_tree.and_ "g" []))

let test_koon_validation () =
  Alcotest.check_raises "k out of range"
    (Invalid_argument "Fault_tree.koon v: k=3 out of range for 2 children")
    (fun () -> ignore (Fault_tree.koon "v" ~k:3 [ b "a"; b "b" ]))

let test_duplicate_events_deduped () =
  let t = Fault_tree.or_ "top" [ b "a"; b "a" ] in
  Alcotest.(check int) "distinct events" 1 (List.length (Fault_tree.basic_events t))

(* ---------- cut sets ---------- *)

let test_cut_sets_or () =
  let t = Fault_tree.or_ "top" [ b "a"; b "b" ] in
  Alcotest.(check (list (list string))) "two singletons" [ [ "a" ]; [ "b" ] ]
    (Cut_sets.minimal t)

let test_cut_sets_and () =
  let t = Fault_tree.and_ "top" [ b "a"; b "b" ] in
  Alcotest.(check (list (list string))) "one pair" [ [ "a"; "b" ] ]
    (Cut_sets.minimal t)

let test_cut_sets_absorption () =
  (* a OR (a AND b) = a: the pair is absorbed. *)
  let t = Fault_tree.or_ "top" [ b "a"; Fault_tree.and_ "g" [ b "a"; b "b" ] ] in
  Alcotest.(check (list (list string))) "absorbed" [ [ "a" ] ] (Cut_sets.minimal t)

let test_cut_sets_series_parallel () =
  (* (a OR b) AND (a OR c) = a OR (b AND c). *)
  let t =
    Fault_tree.and_ "top"
      [ Fault_tree.or_ "g1" [ b "a"; b "b" ]; Fault_tree.or_ "g2" [ b "a"; b "c" ] ]
  in
  Alcotest.(check (list (list string))) "factorised" [ [ "a" ]; [ "b"; "c" ] ]
    (Cut_sets.minimal t)

let test_cut_sets_koon () =
  (* 2oo3 voting: any pair of channel failures. *)
  let t = Fault_tree.koon "v" ~k:2 [ b "a"; b "b"; b "c" ] in
  Alcotest.(check (list (list string))) "all pairs"
    [ [ "a"; "b" ]; [ "a"; "c" ]; [ "b"; "c" ] ]
    (Cut_sets.minimal t)

let test_singletons_and_histogram () =
  let sets = [ [ "a" ]; [ "b"; "c" ]; [ "d" ]; [ "e"; "f"; "g" ] ] in
  Alcotest.(check (list string)) "singletons" [ "a"; "d" ] (Cut_sets.singletons sets);
  Alcotest.(check (list (pair int int))) "histogram" [ (1, 2); (2, 1); (3, 1) ]
    (Cut_sets.order_histogram sets)

(* Does the tree's top event hold when exactly [failed] have occurred?
   The executable specification every engine is tested against. *)
let rec holds failed = function
  | Fault_tree.Basic e -> List.mem e.Fault_tree.event_id failed
  | Fault_tree.And (_, cs) -> List.for_all (holds failed) cs
  | Fault_tree.Or (_, cs) -> List.exists (holds failed) cs
  | Fault_tree.Koon (_, k, cs) ->
      List.length (List.filter (holds failed) cs) >= k

(* Random trees over a small event pool (repetition is common — the
   interesting case for both engines).  [rich] adds k-oo-n gates and
   rates; the original AND/OR generator is kept for the legacy
   minimality property. *)
let rec tree_gen depth next_id =
  QCheck.Gen.(
    if depth = 0 then
      map (fun i -> b (Printf.sprintf "e%d" (i mod next_id))) (int_range 0 (next_id - 1))
    else
      frequency
        [
          (2, map (fun i -> b (Printf.sprintf "e%d" (i mod next_id))) (int_range 0 (next_id - 1)));
          ( 1,
            map
              (fun cs -> Fault_tree.and_ "g" cs)
              (list_size (int_range 1 3) (tree_gen (depth - 1) next_id)) );
          ( 1,
            map
              (fun cs -> Fault_tree.or_ "g" cs)
              (list_size (int_range 1 3) (tree_gen (depth - 1) next_id)) );
        ])

let rich_tree_gen depth next_id =
  let leaf =
    QCheck.Gen.map
      (fun i ->
        let i = i mod next_id in
        b ~rate:(10.0 *. float_of_int (i + 1)) (Printf.sprintf "e%d" i))
      (QCheck.Gen.int_range 0 (next_id - 1))
  in
  let rec go depth =
    QCheck.Gen.(
      if depth = 0 then leaf
      else
        frequency
          [
            (2, leaf);
            ( 1,
              map
                (fun cs -> Fault_tree.and_ "g" cs)
                (list_size (int_range 1 3) (go (depth - 1))) );
            ( 1,
              map
                (fun cs -> Fault_tree.or_ "g" cs)
                (list_size (int_range 1 3) (go (depth - 1))) );
            ( 1,
              map2
                (fun k cs ->
                  Fault_tree.koon "v" ~k:(1 + (k mod List.length cs)) cs)
                (int_range 0 2)
                (list_size (int_range 2 4) (go (depth - 1))) );
          ])
  in
  go depth

(* Property: every minimal cut set, when "failed", satisfies the tree;
   removing any event from it un-satisfies it (true minimality). *)
let prop_cut_sets_minimal =
  QCheck.Test.make ~name:"minimal cut sets are cut sets and minimal" ~count:80
    (QCheck.make (tree_gen 3 6))
    (fun t ->
      let sets = Cut_sets.minimal t in
      List.for_all
        (fun set ->
          holds set t
          && List.for_all
               (fun e -> not (holds (List.filter (fun x -> x <> e) set) t))
               set)
        sets)

(* The merge-based minimizer must agree, order included, with the
   historical quadratic one ([List.mem] membership scans) — on random
   collections of normalized sets and on the DNFs MOCUS produces. *)
let prop_minimize_matches_reference =
  let reference_minimize sets =
    let subset a b = List.for_all (fun x -> List.mem x b) a in
    let sorted =
      List.sort (fun a b -> Int.compare (List.length a) (List.length b)) sets
    in
    List.rev
      (List.fold_left
         (fun kept s ->
           if List.exists (fun k -> subset k s) kept then kept else s :: kept)
         [] sorted)
  in
  QCheck.Test.make ~name:"minimize = reference minimizer" ~count:120
    QCheck.(
      list_of_size
        (QCheck.Gen.int_range 0 20)
        (list_of_size (QCheck.Gen.int_range 0 5) (QCheck.int_range 0 7)))
    (fun raw ->
      let sets =
        List.map
          (fun xs -> Oracle.Cut_set_minimize.normalize (List.map (Printf.sprintf "e%d") xs))
          raw
      in
      Oracle.Cut_set_minimize.minimize sets = reference_minimize sets)

(* ---------- quantification ---------- *)

let test_event_probabilities () =
  let t = Fault_tree.or_ "top" [ b ~rate:100.0 "a"; b "norate" ] in
  let ps = Quant.event_probabilities ~mission_hours:10_000.0 t in
  let pa = List.assoc "a" ps in
  (* 100 FIT over 1e4 h: p = 1 - exp(-1e-7 * 1e4) = ~1e-3. *)
  Alcotest.(check bool) "magnitude" true (pa > 9.9e-4 && pa < 1.01e-3);
  Alcotest.(check (float 1e-12)) "missing rate -> 0" 0.0 (List.assoc "norate" ps)

let test_top_probability_gates () =
  let ps = [ ("a", 0.1); ("b", 0.2) ] in
  Alcotest.(check (float 1e-12)) "and" 0.02
    (Quant.top_probability_exact (Fault_tree.and_ "g" [ b "a"; b "b" ]) ps);
  Alcotest.(check (float 1e-12)) "or" 0.28
    (Quant.top_probability_exact (Fault_tree.or_ "g" [ b "a"; b "b" ]) ps);
  (* 2oo3 with p=0.1 each: 3*0.01*0.9 + 0.001 = 0.028 *)
  let ps3 = [ ("a", 0.1); ("b", 0.1); ("c", 0.1) ] in
  Alcotest.(check (float 1e-12)) "2oo3" 0.028
    (Quant.top_probability_exact
       (Fault_tree.koon "v" ~k:2 [ b "a"; b "b"; b "c" ])
       ps3)

let test_bounds_order () =
  (* rare-event >= esary-proschan >= exact for an OR of independents. *)
  let t = Fault_tree.or_ "g" [ b "a"; b "b"; b "c" ] in
  let ps = [ ("a", 0.2); ("b", 0.3); ("c", 0.1) ] in
  let sets = Cut_sets.minimal t in
  let rare = Quant.rare_event_bound sets ps in
  let ep = Quant.esary_proschan sets ps in
  let exact = Quant.top_probability_exact t ps in
  Alcotest.(check (float 1e-12)) "rare = sum" 0.6 rare;
  Alcotest.(check bool) "ordering" true (rare >= ep && ep >= exact -. 1e-12);
  Alcotest.(check (float 1e-12)) "ep equals exact for OR" exact ep

let test_importance () =
  let sets = [ [ "a" ]; [ "b" ] ] in
  let ps = [ ("a", 0.3); ("b", 0.1) ] in
  match Quant.importance sets ps with
  | (top, share) :: _ ->
      Alcotest.(check string) "a dominates" "a" top;
      Alcotest.(check (float 1e-9)) "share" 0.75 share
  | [] -> Alcotest.fail "expected importance entries"

(* ---------- from SSAM + cross-check ---------- *)

let test_generate_from_case_study () =
  let tree = From_ssam.generate Fixtures.Case_study.power_supply_root in
  let singles = Cut_sets.singletons (Cut_sets.minimal tree) in
  Alcotest.(check bool) "D1 single" true (List.mem "loss:D1" singles);
  Alcotest.(check bool) "MC1 single" true (List.mem "loss:MC1" singles);
  Alcotest.(check bool) "C1 not a single" false (List.mem "loss:C1" singles)

let test_loss_rate () =
  let d1 =
    Option.get
      (Ssam.Architecture.find_in_package Fixtures.Case_study.power_supply_ssam "D1")
  in
  (* 10 FIT * 30% open = 3 FIT of loss-like rate. *)
  Alcotest.(check (float 1e-9)) "D1 loss rate" 3.0 (From_ssam.loss_rate_fit d1)

let test_redundant_becomes_koon () =
  let child =
    Ssam.Architecture.component ~fit:10.0
      ~failure_modes:
        [
          Ssam.Architecture.failure_mode
            ~meta:(Ssam.Base.meta ~name:"loss" "c:loss")
            ~nature:Ssam.Architecture.Loss_of_function ~distribution_pct:100.0 ();
        ]
      ~functions:
        [ Ssam.Architecture.func ~meta:(Ssam.Base.meta "fn") Ssam.Architecture.TwoOoThree ]
      ~meta:(Ssam.Base.meta ~name:"C" "C")
      ()
  in
  let root =
    Ssam.Architecture.component ~component_type:Ssam.Architecture.System
      ~children:[ child ]
      ~connections:
        [
          Ssam.Architecture.relationship ~meta:(Ssam.Base.meta "c0")
            ~from_component:"root" ~to_component:"C" ();
          Ssam.Architecture.relationship ~meta:(Ssam.Base.meta "c1")
            ~from_component:"C" ~to_component:"root" ();
        ]
      ~meta:(Ssam.Base.meta ~name:"root" "root")
      ()
  in
  let tree = From_ssam.generate root in
  let sets = Cut_sets.minimal tree in
  (* 2oo3: no singleton cut sets, three pairs. *)
  Alcotest.(check int) "no singletons" 0 (List.length (Cut_sets.singletons sets));
  Alcotest.(check int) "three pairs" 3 (List.length sets)

let test_no_paths () =
  let lonely =
    Ssam.Architecture.component ~component_type:Ssam.Architecture.System
      ~children:[]
      ~meta:(Ssam.Base.meta ~name:"empty" "empty")
      ()
  in
  match From_ssam.generate lonely with
  | exception From_ssam.No_paths "empty" -> ()
  | _ -> Alcotest.fail "expected No_paths"

let test_cross_check_case_study () =
  Alcotest.(check bool) "FTA route agrees with Algorithm 1" true
    (Oracle.Fta_route.agrees_with_path_fmea Fixtures.Case_study.power_supply_root)

(* Random layered series-parallel system: stage i's [widths_i] blocks
   each feed every block of stage i+1; the boundary wraps the first and
   last stages.  Shared by the consistency properties below. *)
let layered_system widths =
  (* QCheck shrinking can step outside int_range; clamp defensively. *)
  let widths = List.map (fun w -> Int.max 1 (Int.min 3 w)) widths in
  let children = ref [] in
  let connections = ref [] in
  let k = ref 0 in
  let conn a bb =
    incr k;
    connections :=
      Ssam.Architecture.relationship
        ~meta:(Ssam.Base.meta (Printf.sprintf "k%d" !k))
        ~from_component:a ~to_component:bb ()
      :: !connections
  in
  let stage_ids =
    List.mapi
      (fun i width ->
        List.init width (fun j ->
            let id = Printf.sprintf "s%d_%d" i j in
            children :=
              Ssam.Architecture.component ~fit:10.0
                ~failure_modes:
                  [
                    Ssam.Architecture.failure_mode
                      ~meta:(Ssam.Base.meta ~name:"loss" (id ^ ":loss"))
                      ~nature:Ssam.Architecture.Loss_of_function
                      ~distribution_pct:100.0 ();
                  ]
                ~meta:(Ssam.Base.meta ~name:id id)
                ()
              :: !children;
            id))
      widths
  in
  (match stage_ids with
  | first :: _ -> List.iter (fun id -> conn "root" id) first
  | [] -> ());
  let rec wire = function
    | a :: (bs :: _ as rest) ->
        List.iter (fun x -> List.iter (fun y -> conn x y) bs) a;
        wire rest
    | [ last ] -> List.iter (fun id -> conn id "root") last
    | [] -> ()
  in
  wire stage_ids;
  Ssam.Architecture.component ~component_type:Ssam.Architecture.System
    ~children:(List.rev !children)
    ~connections:(List.rev !connections)
    ~meta:(Ssam.Base.meta ~name:"root" "root")
    ()

(* Property: the consistency theorem on random series-parallel systems —
   singleton minimal cut sets = Algorithm 1's safety-related components. *)
let prop_fta_path_agreement =
  QCheck.Test.make ~name:"FTA singletons = path-FMEA single points" ~count:60
    QCheck.(list_of_size (QCheck.Gen.int_range 1 5) (QCheck.int_range 1 3))
    (fun widths -> Oracle.Fta_route.agrees_with_path_fmea (layered_system widths))

(* ---------- BDD kernel ---------- *)

let with_jobs jobs f =
  let saved = Exec.default_jobs () in
  Fun.protect
    ~finally:(fun () -> Exec.set_default_jobs saved)
    (fun () ->
      Exec.set_default_jobs jobs;
      f ())

let sort_sets sets =
  List.sort
    (fun a bb ->
      match Int.compare (List.length a) (List.length bb) with
      | 0 -> List.compare String.compare a bb
      | n -> n)
    (List.map (List.sort String.compare) sets)

let test_bdd_engine_known_trees () =
  let t =
    Fault_tree.and_ "top"
      [ Fault_tree.or_ "g1" [ b "a"; b "bb" ]; Fault_tree.or_ "g2" [ b "a"; b "c" ] ]
  in
  Alcotest.(check (list (list string)))
    "series-parallel via BDD"
    [ [ "a" ]; [ "bb"; "c" ] ]
    (Cut_sets.minimal ~engine:`Bdd t);
  let m = Bdd.build t in
  Alcotest.(check bool) "not constant" true (Bdd.constant m = None);
  Alcotest.(check int) "three variables" 3 (Bdd.var_count m);
  Alcotest.(check bool) "has decision nodes" true (Bdd.node_count m > 0);
  Alcotest.(check (float 0.0)) "two minimal cut sets" 2.0 (Bdd.minimal_cut_set_count m);
  Alcotest.(check (list (list string)))
    "cardinality-1 critical sets" [ [ "a" ] ]
    (Bdd.minimal_critical_sets ~max_cardinality:1 m);
  (* A reversed variable order changes the diagram, never the sets. *)
  let m' = Bdd.build ~order:[ "c"; "bb"; "a" ] t in
  Alcotest.(check (list (list string)))
    "order-independent" (Bdd.minimal_cut_sets m) (Bdd.minimal_cut_sets m');
  (* Constant detection: a 1-oo-1 vote of a tautology is impossible here,
     but an empty-cut-set function is: a AND (NOT available) — instead
     check the constant-true side via an always-failing koon dual. *)
  Alcotest.(check bool) "constant reported" true
    (Bdd.constant (Bdd.build (b "a")) = None)

let test_koon_beyond_mocus_cap_exact () =
  (* 2-oo-30 voting: C(30,2) = 435 pairs.  Check the BDD count and the
     Shannon probability against the closed form for i.i.d. channels. *)
  let n = 30 and p = 0.01 in
  let t =
    Fault_tree.koon "v" ~k:2 (List.init n (fun i -> b (Printf.sprintf "x%02d" i)))
  in
  let m = Bdd.build t in
  Alcotest.(check (float 0.0)) "pair count" 435.0 (Bdd.minimal_cut_set_count m);
  let closed =
    1.0
    -. ((1.0 -. p) ** float_of_int n)
    -. (float_of_int n *. p *. ((1.0 -. p) ** float_of_int (n - 1)))
  in
  let got = Bdd.probability m (fun _ -> p) in
  Alcotest.(check (float 1e-12)) "P(>=2 of 30)" closed got

let test_default_engine_no_cap () =
  (* C(20,2) = 190 pair cut sets: the default engine reads them off the
     BDD, exactly and with no cap on their number. *)
  let t =
    Fault_tree.koon "v" ~k:2 (List.init 20 (fun i -> b (Printf.sprintf "x%02d" i)))
  in
  let sets = Cut_sets.minimal t in
  Alcotest.(check int) "all 190 pairs" 190 (List.length sets);
  Alcotest.(check bool) "every set is a pair" true
    (List.for_all (fun s -> List.length s = 2) sets);
  Alcotest.(check (list (list string)))
    "auto = bdd" (Cut_sets.minimal ~engine:`Bdd t) sets;
  Alcotest.(check (list (list string)))
    "default engine = oracle" (Oracle.Mocus.minimal t) sets

let test_oracle_cap () =
  (* The oracle keeps its expansion cap: the bench relies on it to show
     a tree the BDD solves that enumeration cannot. *)
  let t =
    Fault_tree.koon "v" ~k:2 (List.init 20 (fun i -> b (Printf.sprintf "x%02d" i)))
  in
  Alcotest.check_raises "MOCUS raises past its cap"
    (Invalid_argument "Mocus.minimal: intermediate size 190 exceeds 100")
    (fun () -> ignore (Oracle.Mocus.minimal ~max_sets:100 t));
  Alcotest.(check int) "and fits under the default cap" 190
    (List.length (Oracle.Mocus.minimal t))

let prop_bdd_equals_mocus =
  QCheck.Test.make
    ~name:"BDD cut sets = MOCUS cut sets (SAME_JOBS 1/4)" ~count:120
    (QCheck.make QCheck.Gen.(pair (rich_tree_gen 3 6) (oneofl [ 1; 4 ])))
    (fun (t, jobs) ->
      with_jobs jobs (fun () -> Cut_sets.minimal t = Oracle.Mocus.minimal t))

(* Brute force over all event subsets (≤ 12 events): the minimal models
   of the structure function, filtered per cardinality. *)
let brute_minimal t =
  let events =
    List.map (fun (e : Fault_tree.event) -> e.Fault_tree.event_id)
      (Fault_tree.basic_events t)
  in
  let arr = Array.of_list events in
  let n = Array.length arr in
  assert (n <= 12);
  let sets = ref [] in
  for mask = 1 to (1 lsl n) - 1 do
    let set =
      List.filter_map
        (fun i -> if mask land (1 lsl i) <> 0 then Some arr.(i) else None)
        (List.init n Fun.id)
    in
    if holds set t then sets := Oracle.Cut_set_minimize.normalize set :: !sets
  done;
  sort_sets (Oracle.Cut_set_minimize.minimize !sets)

let prop_critical_sets_brute_force =
  QCheck.Test.make
    ~name:"cardinality-k critical sets = brute-force enumeration" ~count:40
    (QCheck.make (rich_tree_gen 3 12))
    (fun t ->
      let reference = brute_minimal t in
      let m = Bdd.build t in
      Bdd.minimal_cut_sets m = reference
      && List.for_all
           (fun k ->
             Bdd.minimal_critical_sets ~max_cardinality:k m
             = List.filter (fun s -> List.length s <= k) reference)
           [ 1; 2; 3 ])

(* ---------- BDD quantification ---------- *)

let test_quant_repeated_exact () =
  (* a OR (a AND b) ≡ a: the legacy independent-copies recursion
     overestimates, the BDD route is exact. *)
  let t = Fault_tree.or_ "top" [ b "a"; Fault_tree.and_ "g" [ b "a"; b "bb" ] ] in
  let ps = [ ("a", 0.3); ("bb", 0.5) ] in
  Alcotest.(check (float 1e-12)) "exact = P(a)" 0.3
    (Quant.top_probability_exact t ps);
  Alcotest.(check bool) "legacy overestimates repeated events" true
    (Oracle.Independent.top_probability t ps > 0.3 +. 1e-6)

let prop_quant_old_new_agree_without_repetition =
  (* On repetition-free trees the deprecated recursion is correct: the
     two evaluations must agree to float noise. *)
  let uniquify t =
    let n = ref 0 in
    let rec go = function
      | Fault_tree.Basic e ->
          incr n;
          Fault_tree.Basic
            { e with Fault_tree.event_id = Printf.sprintf "u%d" !n }
      | Fault_tree.And (id, cs) -> Fault_tree.And (id, List.map go cs)
      | Fault_tree.Or (id, cs) -> Fault_tree.Or (id, List.map go cs)
      | Fault_tree.Koon (id, k, cs) -> Fault_tree.Koon (id, k, List.map go cs)
    in
    go t
  in
  QCheck.Test.make
    ~name:"BDD probability = legacy recursion on repetition-free trees"
    ~count:100
    (QCheck.make (rich_tree_gen 3 6))
    (fun t ->
      let t = uniquify t in
      let ps =
        List.mapi
          (fun i (e : Fault_tree.event) ->
            (e.Fault_tree.event_id, 0.05 +. (0.09 *. float_of_int (i mod 10))))
          (Fault_tree.basic_events t)
      in
      Float.abs
        (Quant.top_probability_exact t ps
        -. Oracle.Independent.top_probability t ps)
      <= 1e-9)

let test_importance_measures () =
  let t = Fault_tree.or_ "top" [ b "a"; b "bb" ] in
  let ps = [ ("a", 0.1); ("bb", 0.2) ] in
  (match Quant.birnbaum t ps with
  | (top, v) :: _ ->
      Alcotest.(check string) "bb has top Birnbaum" "bb" top;
      Alcotest.(check (float 1e-12)) "1 - P(a)" 0.9 v
  | [] -> Alcotest.fail "expected birnbaum entries");
  (match Quant.fussell_vesely t ps with
  | (top, v) :: _ ->
      Alcotest.(check string) "bb has top FV" "bb" top;
      (* P(top) = 0.28; removing bb leaves 0.1. *)
      Alcotest.(check (float 1e-12)) "share" ((0.28 -. 0.1) /. 0.28) v
  | [] -> Alcotest.fail "expected FV entries");
  (* Repeated events: FV of the dominating event is 1, the absorbed
     event contributes nothing. *)
  let t2 = Fault_tree.or_ "top" [ b "a"; Fault_tree.and_ "g" [ b "a"; b "bb" ] ] in
  let ps2 = [ ("a", 0.3); ("bb", 0.5) ] in
  Alcotest.(check (float 1e-12)) "FV(a) = 1" 1.0
    (List.assoc "a" (Quant.fussell_vesely t2 ps2));
  Alcotest.(check (float 1e-12)) "Birnbaum(bb) = 0" 0.0
    (List.assoc "bb" (Quant.birnbaum t2 ps2))

(* A source event OR-ed with N redundant rails, each lost when either of
   its two events occurs: P(top) = p_s + (1 - p_s) Π q_i with
   q_i = a_i + b_i - a_i b_i.  With rail events near 1e-4 and six rails
   the rail importances sit 14 orders of magnitude below P(top), where
   a difference of conditional probabilities is rounding noise. *)
let test_importance_rails_closed_form () =
  List.iter
    (fun n ->
      let ps_src = 4.7e-4 in
      let a i = 1.0e-4 *. (1.0 +. (0.1 *. float_of_int i))
      and bb i = 2.0e-4 *. (1.0 +. (0.05 *. float_of_int i)) in
      let rail i =
        Fault_tree.or_ (Printf.sprintf "rail%d" i)
          [ b (Printf.sprintf "a%d" i); b (Printf.sprintf "b%d" i) ]
      in
      let t =
        Fault_tree.or_ "top"
          [ b "src"; Fault_tree.and_ "rails" (List.init n rail) ]
      in
      let probs =
        ("src", ps_src)
        :: List.concat
             (List.init n (fun i ->
                  [ (Printf.sprintf "a%d" i, a i); (Printf.sprintf "b%d" i, bb i) ]))
      in
      let q i = a i +. bb i -. (a i *. bb i) in
      let prod_except k =
        List.fold_left ( *. ) 1.0
          (List.filteri (fun i _ -> i <> k) (List.init n q))
      in
      let all_rails = prod_except (-1) in
      let top = ps_src +. ((1.0 -. ps_src) *. all_rails) in
      let expected =
        ("src", 1.0 -. all_rails)
        :: List.concat
             (List.init n (fun i ->
                  let rest = (1.0 -. ps_src) *. prod_except i in
                  [
                    (Printf.sprintf "a%d" i, rest *. (1.0 -. bb i));
                    (Printf.sprintf "b%d" i, rest *. (1.0 -. a i));
                  ]))
      in
      let birnbaum = Quant.birnbaum t probs
      and fv = Quant.fussell_vesely t probs in
      let close what want got =
        if Float.abs (got -. want) > 1e-9 *. Float.abs want then
          Alcotest.failf "%d rails, %s: %.17g, closed form %.17g" n what got
            want
      in
      close "P(top)" top (Quant.top_probability_exact t probs);
      List.iter
        (fun (id, bi) ->
          close ("birnbaum " ^ id) bi (List.assoc id birnbaum);
          let fvi = List.assoc id fv in
          close ("fussell-vesely " ^ id) (List.assoc id probs *. bi /. top) fvi;
          if fvi <= 0.0 then Alcotest.failf "%d rails: FV(%s) = %g" n id fvi)
        expected)
    [ 1; 3; 6 ]

(* With moderate probabilities the textbook difference of conditional
   probabilities is accurate, so it can check the one-pass measures on
   arbitrary structure: repeated events, votes, absorbed events. *)
let prop_importances_match_conditioning =
  QCheck.Test.make ~name:"birnbaum/FV = conditioning on moderate probabilities"
    ~count:100
    (QCheck.make (rich_tree_gen 3 6))
    (fun t ->
      let ps =
        List.mapi
          (fun i (e : Fault_tree.event) ->
            (e.Fault_tree.event_id, 0.05 +. (0.09 *. float_of_int (i mod 10))))
          (Fault_tree.basic_events t)
      in
      let top = Quant.top_probability_exact t ps in
      let given id v =
        Quant.top_probability_exact t
          (List.map (fun (e, p) -> (e, if e = id then v else p)) ps)
      in
      let birnbaum = Quant.birnbaum t ps and fv = Quant.fussell_vesely t ps in
      List.for_all
        (fun (id, _) ->
          let b = List.assoc id birnbaum in
          Float.abs (b -. (given id 1.0 -. given id 0.0)) <= 1e-12
          && (top <= 0.0
             || Float.abs (List.assoc id fv -. ((top -. given id 0.0) /. top))
                <= 1e-9)
          && b >= 0.0)
        ps)

(* ---------- structural lowering (of_structure) ---------- *)

let test_of_structure_case_study () =
  let root = Fixtures.Case_study.power_supply_root in
  Alcotest.(check (list (list string)))
    "of_structure = generate (minimal cut sets, PSU)"
    (Cut_sets.minimal (From_ssam.generate root))
    (Cut_sets.minimal (From_ssam.of_structure root))

let prop_of_structure_equals_generate =
  QCheck.Test.make
    ~name:"of_structure = generate on layered systems" ~count:60
    QCheck.(list_of_size (QCheck.Gen.int_range 1 5) (QCheck.int_range 1 3))
    (fun widths ->
      let root = layered_system widths in
      Cut_sets.minimal (From_ssam.of_structure root)
      = Cut_sets.minimal (From_ssam.generate root))

let cyclic_root () =
  let block id =
    Ssam.Architecture.component ~fit:10.0
      ~meta:(Ssam.Base.meta ~name:id id)
      ()
  in
  let conn n a bb =
    Ssam.Architecture.relationship ~meta:(Ssam.Base.meta n) ~from_component:a
      ~to_component:bb ()
  in
  Ssam.Architecture.component ~component_type:Ssam.Architecture.System
    ~children:[ block "A"; block "B" ]
    ~connections:
      [ conn "k0" "root" "A"; conn "k1" "A" "B"; conn "k2" "B" "A";
        conn "k3" "B" "root" ]
    ~meta:(Ssam.Base.meta ~name:"root" "root")
    ()

let test_of_structure_cyclic () =
  match From_ssam.of_structure (cyclic_root ()) with
  | exception From_ssam.Cyclic stuck ->
      Alcotest.(check bool) "cycle members named" true
        (List.mem "A" stuck && List.mem "B" stuck)
  | _ -> Alcotest.fail "expected Cyclic"

let test_of_structure_no_paths () =
  let lonely =
    Ssam.Architecture.component ~component_type:Ssam.Architecture.System
      ~children:[]
      ~meta:(Ssam.Base.meta ~name:"empty" "empty")
      ()
  in
  match From_ssam.of_structure lonely with
  | exception From_ssam.No_paths "empty" -> ()
  | _ -> Alcotest.fail "expected No_paths"

let test_event_order () =
  let root = Fixtures.Case_study.power_supply_root in
  let order = From_ssam.event_order root in
  Alcotest.(check bool) "no duplicate events" true
    (List.length order = List.length (List.sort_uniq String.compare order));
  let tree_events =
    List.map (fun (e : Fault_tree.event) -> e.Fault_tree.event_id)
      (Fault_tree.basic_events (From_ssam.of_structure root))
  in
  Alcotest.(check bool) "covers the lowered tree's events" true
    (List.for_all (fun id -> List.mem id order) tree_events);
  (* The hint must be harmless to feed straight into the kernel. *)
  let m =
    Bdd.build ~order (From_ssam.of_structure root)
  in
  Alcotest.(check (list (list string)))
    "ordered build = default build"
    (Bdd.minimal_cut_sets (Bdd.build (From_ssam.of_structure root)))
    (Bdd.minimal_cut_sets m)

(* Acceptance: three routes, one answer, on the paper's PSU. *)
let test_single_points_three_routes () =
  let root = Fixtures.Case_study.power_supply_root in
  let via_paths = Fmea.Path_fmea.single_points root in
  Alcotest.(check (list string))
    "BDD cardinality-1 = dominator single points"
    via_paths
    (Fmea_from_fta.single_points_via_bdd root);
  Alcotest.(check bool) "non-trivial" true (via_paths <> [])

let prop_single_points_via_bdd =
  QCheck.Test.make
    ~name:"BDD single points = dominator single points (layered)" ~count:60
    QCheck.(list_of_size (QCheck.Gen.int_range 1 5) (QCheck.int_range 1 3))
    (fun widths ->
      let root = layered_system widths in
      Fmea_from_fta.single_points_via_bdd root
      = Fmea.Path_fmea.single_points root)

let suite =
  [
    Alcotest.test_case "builders" `Quick test_builders;
    Alcotest.test_case "koon validation" `Quick test_koon_validation;
    Alcotest.test_case "duplicate events deduped" `Quick test_duplicate_events_deduped;
    Alcotest.test_case "cut sets: or" `Quick test_cut_sets_or;
    Alcotest.test_case "cut sets: and" `Quick test_cut_sets_and;
    Alcotest.test_case "cut sets: absorption" `Quick test_cut_sets_absorption;
    Alcotest.test_case "cut sets: series-parallel" `Quick test_cut_sets_series_parallel;
    Alcotest.test_case "cut sets: koon" `Quick test_cut_sets_koon;
    Alcotest.test_case "singletons/histogram" `Quick test_singletons_and_histogram;
    QCheck_alcotest.to_alcotest prop_cut_sets_minimal;
    QCheck_alcotest.to_alcotest prop_minimize_matches_reference;
    Alcotest.test_case "event probabilities" `Quick test_event_probabilities;
    Alcotest.test_case "gate probabilities" `Quick test_top_probability_gates;
    Alcotest.test_case "bound ordering" `Quick test_bounds_order;
    Alcotest.test_case "importance" `Quick test_importance;
    Alcotest.test_case "generate from case study" `Quick test_generate_from_case_study;
    Alcotest.test_case "loss rate" `Quick test_loss_rate;
    Alcotest.test_case "redundancy becomes koon" `Quick test_redundant_becomes_koon;
    Alcotest.test_case "no paths" `Quick test_no_paths;
    Alcotest.test_case "cross-check case study" `Quick test_cross_check_case_study;
    QCheck_alcotest.to_alcotest prop_fta_path_agreement;
    Alcotest.test_case "bdd: known trees" `Quick test_bdd_engine_known_trees;
    Alcotest.test_case "bdd: koon exact past expansion" `Quick
      test_koon_beyond_mocus_cap_exact;
    Alcotest.test_case "default engine: no cut-set cap" `Quick
      test_default_engine_no_cap;
    Alcotest.test_case "oracle: MOCUS cap" `Quick test_oracle_cap;
    QCheck_alcotest.to_alcotest prop_bdd_equals_mocus;
    QCheck_alcotest.to_alcotest prop_critical_sets_brute_force;
    Alcotest.test_case "quant: repeated events exact" `Quick
      test_quant_repeated_exact;
    QCheck_alcotest.to_alcotest prop_quant_old_new_agree_without_repetition;
    Alcotest.test_case "quant: importance measures" `Quick
      test_importance_measures;
    Alcotest.test_case "quant: rail importances, closed form" `Quick
      test_importance_rails_closed_form;
    QCheck_alcotest.to_alcotest prop_importances_match_conditioning;
    Alcotest.test_case "of_structure: case study" `Quick
      test_of_structure_case_study;
    QCheck_alcotest.to_alcotest prop_of_structure_equals_generate;
    Alcotest.test_case "of_structure: cyclic" `Quick test_of_structure_cyclic;
    Alcotest.test_case "of_structure: no paths" `Quick
      test_of_structure_no_paths;
    Alcotest.test_case "event order hint" `Quick test_event_order;
    Alcotest.test_case "single points: three routes" `Quick
      test_single_points_three_routes;
    QCheck_alcotest.to_alcotest prop_single_points_via_bdd;
  ]

(* ---------- export ---------- *)

let contains haystack needle =
  let n = String.length haystack and m = String.length needle in
  let rec go i = i + m <= n && (String.sub haystack i m = needle || go (i + 1)) in
  m = 0 || go 0

(* The round-trip reader lives in the library now ([Export.of_open_psa]);
   the property keeps an independent count of gate definitions.  Gate ids
   mutate (the writer suffixes a counter) but the boolean structure,
   event ids and rates must survive. *)
let defined_gate_count (root : Modelio.Xml.element) =
  List.length (Modelio.Xml.descendants root "define-gate")

(* The writer is lossless: any finite FIT (subnormals, 1e300, a
   13th-digit edit, -0.) reads back bit for bit through the FIT
   attribute each basic event carries.  A rate edited by another tool no
   longer matches that attribute, and is read as a rate. *)
let prop_open_psa_lossless =
  let finite =
    QCheck.Gen.(
      oneof
        [
          float_bound_inclusive 1e6;
          map (fun f -> if Float.is_finite f then f else 0.5) float;
          oneofl
            [ 48.00000000001; 48.0000000000001; 1e300; -1e300; 5e-324;
              2.2250738585072009e-308; Float.max_float; -0.0; 0.1; 1e-5;
              99.9; 300.0 ];
        ])
  in
  QCheck.Test.make ~name:"Open-PSA writer lossless (arbitrary finite FITs)"
    ~count:300
    (QCheck.make
       ~print:QCheck.Print.(list (Printf.sprintf "%h"))
       QCheck.Gen.(list_size (int_range 1 6) finite))
    (fun fits ->
      let tree =
        Fault_tree.or_ "top"
          (List.mapi
             (fun i fit ->
               Fault_tree.basic ~rate_fit:fit (Printf.sprintf "e%d" i))
             fits)
      in
      let fits' =
        List.map
          (fun (e : Fault_tree.event) -> e.Fault_tree.rate_fit)
          (Fault_tree.basic_events
             (Export.parse_open_psa (Export.to_open_psa_string tree)))
      in
      List.equal
        (Option.equal (fun a b ->
             Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)))
        (List.map Option.some fits) fits')

let test_open_psa_edited_rate () =
  let doc rate =
    Printf.sprintf
      "<opsa-mef><define-fault-tree name=\"t\"><define-gate \
       name=\"top\"><or><basic-event name=\"a\"/><basic-event \
       name=\"b\"/></or></define-gate><define-basic-event \
       name=\"a\"><attributes><attribute name=\"fit\" \
       value=\"300\"/></attributes><exponential><float \
       value=\"%s\"/></exponential></define-basic-event></define-fault-tree></opsa-mef>"
      rate
  in
  let fit_of rate =
    match Fault_tree.basic_events (Export.parse_open_psa (doc rate)) with
    | { Fault_tree.event_id = "a"; rate_fit = Some fit; _ } :: _ -> fit
    | _ -> Alcotest.fail "event a with a rate"
  in
  Alcotest.(check (float 0.0)) "rate as written: the FIT attribute" 300.0
    (fit_of (Modelio.Float_text.to_string (300.0 *. 1e-9)));
  Alcotest.(check (float 1e-9)) "rate edited: the rate" 400.0 (fit_of "4e-07")

let prop_open_psa_round_trip =
  QCheck.Test.make ~name:"Open-PSA round-trip preserves the tree" ~count:80
    (QCheck.make (rich_tree_gen 3 6))
    (fun t ->
      let reparsed = Modelio.Xml.parse (Export.to_open_psa_string t) in
      let t' = Export.of_open_psa reparsed in
      let defined_gates = defined_gate_count reparsed in
      (* one define-gate per gate occurrence, plus the "top" wrapper *)
      defined_gates = Fault_tree.gate_count t + 1
      && Bdd.minimal_cut_sets (Bdd.build t')
         = Bdd.minimal_cut_sets (Bdd.build t)
      && List.length (Fault_tree.basic_events t)
         = List.length (Fault_tree.basic_events t')
      && List.for_all2
           (fun (a : Fault_tree.event) (bb : Fault_tree.event) ->
             String.equal a.Fault_tree.event_id bb.Fault_tree.event_id
             &&
             match (a.Fault_tree.rate_fit, bb.Fault_tree.rate_fit) with
             | None, None -> true
             | Some x, Some y ->
                 Float.abs (x -. y) <= 1e-5 *. Float.max 1.0 (Float.abs x)
             | _ -> false)
           (List.sort compare (Fault_tree.basic_events t))
           (List.sort compare (Fault_tree.basic_events t')))

let export_suite =
  let tree = From_ssam.generate Fixtures.Case_study.power_supply_root in
  let test_dot () =
    let dot = Export.to_dot ~name:"psu" tree in
    Alcotest.(check bool) "digraph header" true (contains dot "digraph psu");
    Alcotest.(check bool) "OR gate shape" true (contains dot "invhouse");
    Alcotest.(check bool) "event labelled with rate" true (contains dot "3 FIT");
    (* Repeated basic events are emitted once. *)
    let occurrences needle =
      let rec go i acc =
        if i + String.length needle > String.length dot then acc
        else if String.sub dot i (String.length needle) = needle then
          go (i + 1) (acc + 1)
        else go (i + 1) acc
      in
      go 0 0
    in
    Alcotest.(check int) "D1 node emitted once" 1
      (occurrences "ev_loss_D1 [shape=circle")
  in
  let test_dot_koon () =
    let vote = Fault_tree.koon "v" ~k:2 [ Fault_tree.basic "a"; Fault_tree.basic "b"; Fault_tree.basic "c" ] in
    Alcotest.(check bool) "k/N label" true (contains (Export.to_dot vote) "2/3")
  in
  let test_open_psa () =
    let xml = Export.to_open_psa ~model_name:"psu" tree in
    Alcotest.(check string) "root tag" "opsa-mef" xml.Modelio.Xml.tag;
    (* Parses back as XML and contains the expected structures. *)
    let s = Export.to_open_psa_string tree in
    let reparsed = Modelio.Xml.parse s in
    Alcotest.(check bool) "fault tree defined" true
      (Modelio.Xml.descendants reparsed "define-fault-tree" <> []);
    Alcotest.(check bool) "basic events defined" true
      (List.length (Modelio.Xml.descendants reparsed "define-basic-event") >= 5);
    (* MC1's 300 FIT becomes 3e-7 per hour, the float 300 *. 1e-9
       printed exactly. *)
    Alcotest.(check bool) "rates converted" true
      (contains s
         (Printf.sprintf "<float value=\"%s\"/>"
            (Modelio.Float_text.to_string (300.0 *. 1e-9))))
  in
  let test_save_files () =
    let dot_path = Filename.temp_file "ft" ".dot" in
    let psa_path = Filename.temp_file "ft" ".xml" in
    Export.save_dot ~path:dot_path tree;
    Export.save_open_psa ~path:psa_path tree;
    let size p =
      let ic = open_in p in
      let n = in_channel_length ic in
      close_in ic;
      n
    in
    Alcotest.(check bool) "files non-empty" true (size dot_path > 0 && size psa_path > 0);
    Sys.remove dot_path;
    Sys.remove psa_path
  in
  let test_round_trip_case_study () =
    let tree' = Export.parse_open_psa (Export.to_open_psa_string tree) in
    Alcotest.(check (list (list string)))
      "cut sets survive the MEF round-trip"
      (Cut_sets.minimal tree)
      (Bdd.minimal_cut_sets (Bdd.build tree'))
  in
  let test_import_errors () =
    let expect_error doc =
      match Export.parse_open_psa doc with
      | exception Export.Format_error _ -> ()
      | _ -> Alcotest.fail "expected Format_error"
    in
    expect_error "<opsa-mef></opsa-mef>";
    expect_error
      "<opsa-mef><define-fault-tree name=\"t\"><define-gate name=\"top\"><gate \
       name=\"missing\"/></define-gate></define-fault-tree></opsa-mef>";
    expect_error
      "<opsa-mef><define-fault-tree name=\"t\"><define-gate \
       name=\"top\"><xor><basic-event name=\"a\"/><basic-event \
       name=\"b\"/></xor></define-gate></define-fault-tree></opsa-mef>";
    (* No gate named "top": fall back to the first defined gate. *)
    let t =
      Export.parse_open_psa
        "<opsa-mef><define-fault-tree name=\"t\"><define-gate \
         name=\"root\"><or><basic-event name=\"a\"/><basic-event \
         name=\"b\"/></or></define-gate></define-fault-tree></opsa-mef>"
    in
    Alcotest.(check int) "fallback top gate read" 2
      (List.length (Fault_tree.basic_events t))
  in
  [
    Alcotest.test_case "dot export" `Quick test_dot;
    Alcotest.test_case "dot koon" `Quick test_dot_koon;
    Alcotest.test_case "open-psa export" `Quick test_open_psa;
    Alcotest.test_case "save files" `Quick test_save_files;
    Alcotest.test_case "open-psa round-trip (case study)" `Quick
      test_round_trip_case_study;
    Alcotest.test_case "open-psa import errors" `Quick test_import_errors;
    QCheck_alcotest.to_alcotest prop_open_psa_round_trip;
    QCheck_alcotest.to_alcotest prop_open_psa_lossless;
    Alcotest.test_case "open-psa edited rate" `Quick test_open_psa_edited_rate;
  ]
