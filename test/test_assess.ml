(* Tests for the bit-parallel Monte-Carlo assessment engine: tape
   compilation and evaluation against naive per-lane semantics, CI
   coverage against the BDD-exact oracle, determinism across job
   counts, and the rare-event value of importance sampling. *)

open Assess

let b ?rate id = Fta.Fault_tree.basic ?rate_fit:rate id

(* ---------- program: compile / eval ---------- *)

(* Naive single-trial evaluation: the semantics eval must match lane by
   lane. *)
let rec truth assignment tree =
  match tree with
  | Fta.Fault_tree.Basic e -> List.assoc e.Fta.Fault_tree.event_id assignment
  | Fta.Fault_tree.And (_, cs) -> List.for_all (truth assignment) cs
  | Fta.Fault_tree.Or (_, cs) -> List.exists (truth assignment) cs
  | Fta.Fault_tree.Koon (_, k, cs) ->
      List.length (List.filter (truth assignment) cs) >= k

let eval_lanes tree vars =
  let prog = Program.compile tree in
  let scratch = Program.scratch prog in
  Program.eval prog scratch ~vars

let test_eval_basic_gates () =
  let t =
    Fta.Fault_tree.or_ "top" [ b "a"; Fta.Fault_tree.and_ "g" [ b "b"; b "c" ] ]
  in
  (* lanes: a fails in lane 0, b&c in lane 1, only b in lane 2 *)
  let vars = [| 0b001; 0b110; 0b010 |] in
  Alcotest.(check int) "a or (b and c)" 0b011 (eval_lanes t vars land 0b111)

let test_eval_koon_exhaustive () =
  (* 2oo3 and 3oo5 checked on every lane of every input combination by
     packing the 2^n combinations into lanes. *)
  List.iter
    (fun (k, n) ->
      let events = List.init n (fun i -> b (Printf.sprintf "e%d" i)) in
      let t = Fta.Fault_tree.koon "v" ~k events in
      let combos = 1 lsl n in
      assert (combos <= Program.word_bits);
      (* lane l encodes combination l: event i fails iff bit i of l *)
      let vars =
        Array.init n (fun i ->
            let w = ref 0 in
            for l = 0 to combos - 1 do
              if (l lsr i) land 1 = 1 then w := !w lor (1 lsl l)
            done;
            !w)
      in
      let got = eval_lanes t vars in
      for l = 0 to combos - 1 do
        let assignment =
          List.init n (fun i ->
              (Printf.sprintf "e%d" i, (l lsr i) land 1 = 1))
        in
        let expected = truth assignment t in
        Alcotest.(check bool)
          (Printf.sprintf "%doo%d lane %d" k n l)
          expected
          ((got lsr l) land 1 = 1)
      done)
    [ (2, 3); (3, 5); (1, 4); (4, 4) ]

let test_popcount () =
  let popcount = Graph.Bitset.popcount in
  Alcotest.(check int) "zero" 0 (popcount 0);
  Alcotest.(check int) "one" 1 (popcount 1);
  Alcotest.(check int) "all lanes" Program.word_bits
    (popcount Program.all_lanes);
  Alcotest.(check int) "alternating" 29 (popcount 0x2AAAAAAAAAAAAAA);
  Alcotest.(check int) "high lane only" 1
    (popcount (1 lsl (Program.word_bits - 1)))

let test_shared_subtree_compiles_once () =
  let shared = Fta.Fault_tree.and_ "g" [ b "a"; b "b" ] in
  let t = Fta.Fault_tree.or_ "top" [ shared; shared ] in
  (* 2 loads + 1 AND + 1 OR: the physically shared gate is not recompiled. *)
  Alcotest.(check int) "tape length" 4 (Program.n_instrs (Program.compile t))

(* Random tree whose events carry rates — reuse the shape of the fta
   tests' generator, bounded to 12 distinct events. *)
let tree_gen depth next_id =
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
                (fun cs -> Fta.Fault_tree.and_ "g" cs)
                (list_size (int_range 1 3) (go (depth - 1))) );
            ( 1,
              map
                (fun cs -> Fta.Fault_tree.or_ "g" cs)
                (list_size (int_range 1 3) (go (depth - 1))) );
            ( 1,
              map2
                (fun cs k ->
                  Fta.Fault_tree.koon "v"
                    ~k:(1 + (k mod List.length cs))
                    cs)
                (list_size (int_range 2 4) (go (depth - 1)))
                (int_range 0 3) );
          ])
  in
  go depth

let prop_eval_matches_naive =
  QCheck.Test.make ~name:"tape eval = naive per-lane evaluation" ~count:120
    QCheck.(
      make
        Gen.(
          pair (tree_gen 3 12) (array_size (return 12) (int_range min_int max_int))))
    (fun (t, words) ->
      let events = Fta.Fault_tree.basic_events t in
      let vars =
        Array.init (List.length events) (fun i -> words.(i mod Array.length words))
      in
      let got = eval_lanes t vars in
      List.for_all
        (fun l ->
          let assignment =
            List.mapi
              (fun i (e : Fta.Fault_tree.event) ->
                (e.Fta.Fault_tree.event_id, (vars.(i) lsr l) land 1 = 1))
              events
          in
          truth assignment t = ((got lsr l) land 1 = 1))
        (List.init Program.word_bits Fun.id))

(* ---------- mc: CI coverage vs the BDD oracle ---------- *)

(* A long mission makes the generator's 10..120 FIT rates land on
   well-conditioned probabilities (0.1 .. 0.7), where 100k trials
   discriminate sharply. *)
let mission_hours = 1.0e7

let exact_of tree =
  Fta.Quant.top_probability_exact tree
    (Fta.Quant.event_probabilities ~mission_hours tree)

let prop_estimate_within_ci_of_exact =
  QCheck.Test.make
    ~name:"MC estimate within 99% CI of BDD-exact (jobs 1 = jobs 4)"
    ~count:60
    (QCheck.make (tree_gen 3 12))
    (fun t ->
      let config =
        {
          Mc.default with
          Mc.mission_hours;
          trials = Some 100_000;
          exact = Mc.Skip;
        }
      in
      let r1 = Mc.run ~jobs:1 config t in
      let r4 = Mc.run ~jobs:4 config t in
      let exact = exact_of t in
      (* Bit-identical across job counts... *)
      Float.equal r1.Mc.top_probability r4.Mc.top_probability
      && Float.equal r1.Mc.halfwidth r4.Mc.halfwidth
      (* ...and inside a widened interval (6 sigma rather than the
         reported 2.58 sigma, so the property is near-deterministic
         under QCheck's random seeds). *)
      && Float.abs (r1.Mc.top_probability -. exact)
         <= Float.max (6.0 /. 2.576 *. r1.Mc.halfwidth) 1e-9)

let test_fixed_seed_ci_covers_exact () =
  (* The reported interval itself (no widening) at a fixed seed: a 2oo3
     vote over unequal channels plus a common-cause OR. *)
  let t =
    Fta.Fault_tree.or_ "top"
      [
        Fta.Fault_tree.koon "vote" ~k:2
          [ b ~rate:40.0 "ch1"; b ~rate:55.0 "ch2"; b ~rate:70.0 "ch3" ];
        b ~rate:5.0 "cc";
      ]
  in
  let config =
    { Mc.default with Mc.mission_hours; trials = Some 504_000 }
  in
  let r = Mc.run config t in
  let exact = exact_of t in
  Alcotest.(check (option (float 1e-12)))
    "exact cross-check recorded" (Some exact) r.Mc.exact;
  Alcotest.(check bool)
    (Printf.sprintf "exact %.6g inside %.6g +/- %.3g" exact
       r.Mc.top_probability r.Mc.halfwidth)
    true
    (Float.abs (r.Mc.top_probability -. exact) <= r.Mc.halfwidth);
  Alcotest.(check bool) "trials rounded to replicates" true
    (r.Mc.trials >= 504_000 && r.Mc.trials mod Mc.trials_per_replicate = 0)

let test_determinism_across_jobs () =
  let t =
    Fta.Fault_tree.and_ "top"
      [ b ~rate:100.0 "a"; Fta.Fault_tree.or_ "g" [ b ~rate:60.0 "b"; b ~rate:80.0 "c" ] ]
  in
  List.iter
    (fun sampling ->
      let config =
        {
          Mc.default with
          Mc.mission_hours;
          sampling;
          trials = Some (4 * Mc.trials_per_replicate);
          exact = Mc.Skip;
        }
      in
      let r1 = Mc.run ~jobs:1 config t in
      let r4 = Mc.run ~jobs:4 config t in
      let label f = Mc.sampling_to_string sampling ^ ": " ^ f in
      Alcotest.(check (float 0.0))
        (label "estimate bit-identical")
        r1.Mc.top_probability r4.Mc.top_probability;
      Alcotest.(check (float 0.0))
        (label "halfwidth bit-identical")
        r1.Mc.halfwidth r4.Mc.halfwidth;
      Alcotest.(check (list (pair string (float 0.0))))
        (label "importances bit-identical")
        (List.map (fun e -> (e.Mc.event_id, e.Mc.importance)) r1.Mc.events)
        (List.map (fun e -> (e.Mc.event_id, e.Mc.importance)) r4.Mc.events))
    [ Mc.Direct; Mc.Importance; Mc.Stratified ]

(* ---------- mc: the bit-plane sampler ---------- *)

let two53 = 1 lsl 53

(* Fire counts of [words] consecutive words of one event stream, per
   lane, and the stream state after them. *)
let lane_counts ~state ~threshold ~words =
  let counts = Array.make Program.word_bits 0 in
  let st = ref state in
  for _ = 1 to words do
    let fire, st' = Mc.sample_lanes ~state:!st ~threshold in
    st := st';
    for l = 0 to Program.word_bits - 1 do
      if (fire lsr l) land 1 = 1 then counts.(l) <- counts.(l) + 1
    done
  done;
  (counts, !st)

(* |observed - expected| within [k] binomial standard deviations. *)
let within_binomial ?(k = 5.0) ~n ~p hits =
  let mean = float_of_int n *. p in
  Float.abs (float_of_int hits -. mean)
  <= k *. sqrt (float_of_int n *. p *. (1.0 -. p))

let test_sampler_marginals () =
  let words = 20_000 in
  List.iter
    (fun (label, threshold) ->
      let p = float_of_int threshold /. float_of_int two53 in
      let counts, _ = lane_counts ~state:12345 ~threshold ~words in
      let total = Array.fold_left ( + ) 0 counts in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d fires in %d trials vs p = %g" label total
           (words * Program.word_bits) p)
        true
        (within_binomial ~n:(words * Program.word_bits) ~p total);
      (* every lane on its own, so no lane's random bit is biased *)
      Array.iteri
        (fun l c ->
          if not (within_binomial ~n:words ~p c) then
            Alcotest.failf "%s: lane %d fired %d of %d (p = %g)" label l c
              words p)
        counts)
    [
      ("p = 0.5", 1 lsl 52);
      ("p = 0.3", int_of_float (0.3 *. float_of_int two53));
      ("p = 1e-3", int_of_float (1e-3 *. float_of_int two53));
      ("p = 0.9", int_of_float (0.9 *. float_of_int two53));
    ]

let test_sampler_edges () =
  let state = 987654321 in
  let no_draw threshold expected =
    let fire, st = Mc.sample_lanes ~state ~threshold in
    Alcotest.(check int) (Printf.sprintf "t = %d: fire mask" threshold)
      expected fire;
    Alcotest.(check int) (Printf.sprintf "t = %d: no draw" threshold) state st
  in
  no_draw 0 0;
  no_draw two53 Program.all_lanes;
  no_draw (two53 + 7) Program.all_lanes;
  (* t = 2^52: one plane decides every lane, so exactly one draw, the
     same step from any state; t = 2^51 needs exactly two. *)
  let step st = snd (Mc.sample_lanes ~state:st ~threshold:(1 lsl 52)) - st in
  let d = step state in
  Alcotest.(check bool) "t = 2^52 draws" true (d <> 0);
  List.iter
    (fun st ->
      Alcotest.(check int) "t = 2^52: one draw from any state" d (step st))
    [ 0; 1; 42; max_int; min_int; 0x5555_5555 ];
  Alcotest.(check int) "t = 2^51: two draws" (2 * d)
    (snd (Mc.sample_lanes ~state ~threshold:(1 lsl 51)) - state);
  (* The extreme thresholds run the full 53-plane comparison without
     error: a lane fires (or stays silent) with probability 2^-53. *)
  let counts, _ = lane_counts ~state ~threshold:1 ~words:10_000 in
  Alcotest.(check int) "t = 1 never fires" 0 (Array.fold_left ( + ) 0 counts);
  let counts, _ = lane_counts ~state ~threshold:(two53 - 1) ~words:10_000 in
  Alcotest.(check int) "t = 2^53 - 1 always fires"
    (10_000 * Program.word_bits)
    (Array.fold_left ( + ) 0 counts)

(* One-event trees through the whole engine (an unrated event, p = 0,
   is "unrated tree degenerates"): a certain event always fires, and
   p = 0.5 lands within binomial bounds. *)
let test_one_event_marginals () =
  let one ?rate mission_hours =
    Mc.run
      {
        Mc.default with
        Mc.mission_hours;
        trials = Some (8 * Mc.trials_per_replicate);
        exact = Mc.Skip;
      }
      (Fta.Fault_tree.or_ "top" [ b ?rate "x" ])
  in
  Alcotest.(check (float 0.0)) "p = 1 always fires" 1.0
    (one ~rate:1.0e9 1.0e6).Mc.top_probability;
  (* 1,000 FIT for ln 2 / 1e-6 hours: p = 1 - exp(-ln 2) = 0.5 *)
  let r = one ~rate:1000.0 (Float.log 2.0 *. 1.0e6) in
  let hits = int_of_float (r.Mc.top_probability *. float_of_int r.Mc.trials) in
  Alcotest.(check bool)
    (Printf.sprintf "p = 0.5: %d of %d" hits r.Mc.trials)
    true
    (within_binomial ~n:r.Mc.trials ~p:0.5 hits)

(* Over 200 fixed seeds per tree and scheme, the reported 99% interval
   must cover the BDD-exact value about 99% of the time, and the
   standardised errors must look standard normal: a biased sampler
   shifts their mean, a miscalibrated interval their spread.  The seeds
   are fixed, so the check is deterministic; the bounds sit at ~4
   standard errors of each statistic for a correct sampler (at most 8
   misses of 200: the binomial tail beyond is ~2e-4).  The spread's
   lower bound leaves room for the stratified interval, which pools the
   two strata's variance and so runs wide (spread ~0.89 on the 2oo3
   tree over 3,000 seeds). *)
let test_interval_coverage () =
  let seeds = 200 in
  let trees =
    [
      ( "2oo3 + common cause",
        1.0e7,
        Fta.Fault_tree.or_ "top"
          [
            Fta.Fault_tree.koon "vote" ~k:2
              [ b ~rate:40.0 "ch1"; b ~rate:55.0 "ch2"; b ~rate:70.0 "ch3" ];
            b ~rate:5.0 "cc";
          ] );
      (* probabilities 0.005..0.08: importance sampling tilts them all *)
      ( "two pairs + single",
        1.0e6,
        Fta.Fault_tree.or_ "top"
          [
            Fta.Fault_tree.and_ "p1" [ b ~rate:30.0 "a"; b ~rate:60.0 "b" ];
            Fta.Fault_tree.and_ "p2" [ b ~rate:45.0 "c"; b ~rate:80.0 "d" ];
            b ~rate:5.0 "e";
          ] );
    ]
  in
  List.iter
    (fun sampling ->
      List.iter
        (fun (name, mission_hours, tree) ->
          let exact =
            Fta.Quant.top_probability_exact tree
              (Fta.Quant.event_probabilities ~mission_hours tree)
          in
          let zs =
            List.init seeds (fun i ->
                let r =
                  Mc.run ~jobs:1
                    {
                      Mc.default with
                      Mc.mission_hours;
                      sampling;
                      seed = i + 1;
                      trials = Some (4 * Mc.trials_per_replicate);
                      exact = Mc.Skip;
                    }
                    tree
                in
                (r.Mc.top_probability -. exact)
                /. (r.Mc.halfwidth /. Stat.z99))
          in
          let n = float_of_int seeds in
          let misses =
            List.length (List.filter (fun z -> Float.abs z > Stat.z99) zs)
          in
          let mean = List.fold_left ( +. ) 0.0 zs /. n in
          let sd =
            sqrt
              (List.fold_left
                 (fun a z -> a +. ((z -. mean) *. (z -. mean)))
                 0.0 zs
              /. (n -. 1.0))
          in
          let label =
            Printf.sprintf "%s, %s: %d/%d covered, z mean %.3f sd %.3f"
              (Mc.sampling_to_string sampling)
              name (seeds - misses) seeds mean sd
          in
          Alcotest.(check bool) label true
            (misses <= 8 && Float.abs mean <= 0.3 && sd >= 0.7 && sd <= 1.2))
        trees)
    [ Mc.Direct; Mc.Importance; Mc.Stratified ]

(* ---------- mc: rare events ---------- *)

let rare_tree =
  (* AND of three 100 FIT events over a 10,000 h mission: each fails
     with p ~ 1e-3, the top event with ~1e-9.  Direct sampling at this
     budget essentially never sees it. *)
  Fta.Fault_tree.and_ "top"
    [ b ~rate:100.0 "a"; b ~rate:100.0 "b"; b ~rate:100.0 "c" ]

let test_importance_rare_event () =
  let budget = 63 * Mc.trials_per_replicate (* ~508k trials *) in
  let exact =
    Fta.Quant.top_probability_exact rare_tree
      (Fta.Quant.event_probabilities ~mission_hours:10_000.0 rare_tree)
  in
  let run sampling =
    Mc.run
      {
        Mc.default with
        Mc.sampling;
        trials = Some budget;
        exact = Mc.Skip;
      }
      rare_tree
  in
  let imp = run Mc.Importance in
  let direct = run Mc.Direct in
  Alcotest.(check bool)
    (Printf.sprintf "importance converges: %.3g +/- %.3g vs exact %.3g"
       imp.Mc.top_probability imp.Mc.halfwidth exact)
    true
    (Float.abs (imp.Mc.top_probability -. exact) <= 3.0 *. imp.Mc.halfwidth
    && imp.Mc.halfwidth <= 0.5 *. exact);
  (* The direct interval at the same budget is orders of magnitude wider
     than the importance one — the 100x-trials gap the tilting closes. *)
  Alcotest.(check bool)
    (Printf.sprintf "direct interval %.3g >= 100x importance %.3g"
       direct.Mc.halfwidth imp.Mc.halfwidth)
    true
    (direct.Mc.halfwidth >= 100.0 *. imp.Mc.halfwidth)

let test_stratified_matches_exact () =
  let t =
    Fta.Fault_tree.or_ "top"
      [
        Fta.Fault_tree.and_ "g" [ b ~rate:120.0 "a"; b ~rate:90.0 "b" ];
        b ~rate:30.0 "c";
      ]
  in
  let config =
    {
      Mc.default with
      Mc.mission_hours;
      sampling = Mc.Stratified;
      trials = Some 500_000;
      exact = Mc.Skip;
    }
  in
  let r = Mc.run config t in
  let exact = exact_of t in
  Alcotest.(check bool)
    (Printf.sprintf "stratified %.6g +/- %.3g vs exact %.6g"
       r.Mc.top_probability r.Mc.halfwidth exact)
    true
    (Float.abs (r.Mc.top_probability -. exact) <= 3.0 *. r.Mc.halfwidth)

(* ---------- mc: stopping rule and reports ---------- *)

let test_rel_precision_stopping () =
  let t =
    Fta.Fault_tree.or_ "top" [ b ~rate:50.0 "a"; b ~rate:80.0 "b" ]
  in
  let r =
    Mc.run
      {
        Mc.default with
        Mc.mission_hours;
        rel_precision = Some 0.05;
        exact = Mc.Skip;
      }
      t
  in
  Alcotest.(check bool) "converged to the requested precision" true
    (r.Mc.halfwidth <= 0.05 *. r.Mc.top_probability);
  Alcotest.(check bool) "did not blow the trial cap" true
    (r.Mc.trials <= Mc.default.Mc.max_trials)

(* [max_trials] is a hard cap even when it is not a multiple of the
   replicate size: the last doubling round rounds down, to an even
   count under stratified sampling. *)
let test_max_trials_hard_cap () =
  let t = Fta.Fault_tree.or_ "top" [ b ~rate:50.0 "a"; b ~rate:80.0 "b" ] in
  let max_trials = (11 * Mc.trials_per_replicate) + 5_000 in
  List.iter
    (fun (sampling, replicates) ->
      let r =
        Mc.run
          {
            Mc.default with
            Mc.mission_hours;
            sampling;
            rel_precision = Some 1e-9;
            max_trials;
            exact = Mc.Skip;
          }
          t
      in
      let label = Mc.sampling_to_string sampling in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d trials <= max_trials %d" label r.Mc.trials
           max_trials)
        true
        (r.Mc.trials <= max_trials);
      Alcotest.(check int) (label ^ ": stopped at the cap")
        (replicates * Mc.trials_per_replicate)
        r.Mc.trials)
    [ (Mc.Direct, 11); (Mc.Importance, 11); (Mc.Stratified, 10) ]

let test_budget_validation () =
  let t = Fta.Fault_tree.or_ "top" [ b ~rate:50.0 "a"; b ~rate:80.0 "b" ] in
  let rejects label config =
    match Mc.run { config with Mc.exact = Mc.Skip } t with
    | exception Invalid_argument _ -> ()
    | r ->
        Alcotest.failf "%s: ran %d trials instead of failing" label r.Mc.trials
  in
  rejects "trials 0" { Mc.default with Mc.trials = Some 0 };
  rejects "negative trials" { Mc.default with Mc.trials = Some (-8064) };
  rejects "rel-precision 0" { Mc.default with Mc.rel_precision = Some 0.0 };
  rejects "negative rel-precision"
    { Mc.default with Mc.rel_precision = Some (-0.1) };
  rejects "nan rel-precision" { Mc.default with Mc.rel_precision = Some nan };
  rejects "both budgets"
    { Mc.default with Mc.trials = Some 100_000; rel_precision = Some 0.1 };
  rejects "max_trials below the first round"
    { Mc.default with Mc.rel_precision = Some 0.1; max_trials = 1_000 };
  rejects "stratified: max_trials below the first two replicates"
    {
      Mc.default with
      Mc.mission_hours;
      sampling = Mc.Stratified;
      rel_precision = Some 0.1;
      max_trials = Mc.trials_per_replicate;
    }

let test_report_contents () =
  let t =
    Fta.Fault_tree.or_ "top" [ b ~rate:100.0 "hot"; b ~rate:1.0 "cold" ]
  in
  let r =
    Mc.run { Mc.default with Mc.mission_hours; trials = Some 200_000 } t
  in
  (* Importance ranking: the dominant event first. *)
  (match r.Mc.events with
  | first :: _ ->
      Alcotest.(check string) "dominant event ranked first" "hot"
        first.Mc.event_id
  | [] -> Alcotest.fail "no event reports");
  Alcotest.(check bool) "exact delta computed under Auto" true
    (match r.Mc.exact_delta with Some d -> d >= 0.0 | None -> false);
  Alcotest.(check bool) "throughput measured" true (r.Mc.trials_per_sec > 0.0);
  Alcotest.(check bool) "tape length reported" true (r.Mc.instrs >= 3)

let test_unrated_tree_degenerates () =
  (* No rates anywhere: every sampler returns exactly zero. *)
  let t = Fta.Fault_tree.or_ "top" [ b "a"; b "b" ] in
  List.iter
    (fun sampling ->
      let r =
        Mc.run
          {
            Mc.default with
            Mc.sampling;
            trials = Some Mc.trials_per_replicate;
            exact = Mc.Skip;
          }
          t
      in
      Alcotest.(check (float 0.0))
        (Mc.sampling_to_string sampling ^ ": zero estimate")
        0.0 r.Mc.top_probability)
    [ Mc.Direct; Mc.Importance; Mc.Stratified ]

let suite =
  [
    Alcotest.test_case "eval basic gates" `Quick test_eval_basic_gates;
    Alcotest.test_case "eval koon exhaustive" `Quick test_eval_koon_exhaustive;
    Alcotest.test_case "popcount" `Quick test_popcount;
    Alcotest.test_case "shared subtree compiles once" `Quick
      test_shared_subtree_compiles_once;
    QCheck_alcotest.to_alcotest prop_eval_matches_naive;
    QCheck_alcotest.to_alcotest prop_estimate_within_ci_of_exact;
    Alcotest.test_case "fixed seed: CI covers exact" `Quick
      test_fixed_seed_ci_covers_exact;
    Alcotest.test_case "determinism across jobs" `Quick
      test_determinism_across_jobs;
    Alcotest.test_case "sampler: per-lane marginals" `Quick
      test_sampler_marginals;
    Alcotest.test_case "sampler: thresholds at the edges" `Quick
      test_sampler_edges;
    Alcotest.test_case "sampler: one-event trees" `Quick
      test_one_event_marginals;
    Alcotest.test_case "99% interval coverage over 200 seeds" `Slow
      test_interval_coverage;
    Alcotest.test_case "importance sampling on a rare event" `Quick
      test_importance_rare_event;
    Alcotest.test_case "stratified matches exact" `Quick
      test_stratified_matches_exact;
    Alcotest.test_case "rel-precision stopping rule" `Quick
      test_rel_precision_stopping;
    Alcotest.test_case "max_trials is a hard cap" `Quick
      test_max_trials_hard_cap;
    Alcotest.test_case "budget validation" `Quick test_budget_validation;
    Alcotest.test_case "report contents" `Quick test_report_contents;
    Alcotest.test_case "unrated tree degenerates" `Quick
      test_unrated_tree_degenerates;
  ]
