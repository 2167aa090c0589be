(* Tests for the safety-mechanism deployment search. *)

let mech ?(cost = 1.0) name ctype fmode cov =
  {
    Reliability.Sm_model.sm_name = name;
    component_type = ctype;
    failure_mode = fmode;
    coverage_pct = cov;
    cost;
  }

let table rows = { Fmea.Table.system_name = "s"; rows }

let sr_row ?(fit = 100.0) ?(dist = 100.0) component fmode =
  Fmea.Table.make_row ~component ~component_fit:fit ~failure_mode:fmode
    ~distribution_pct:dist ~safety_related:true ()

let two_slot_table =
  table [ sr_row "X" "f"; sr_row ~fit:50.0 "Y" "g" ]

let catalogue =
  Reliability.Sm_model.of_mechanisms
    [
      mech ~cost:1.0 "cheap" "X" "f" 60.0;
      mech ~cost:4.0 "good" "X" "f" 95.0;
      mech ~cost:2.0 "only" "Y" "g" 90.0;
    ]

let test_slots () =
  let slots = Optimize.Search.slots two_slot_table catalogue in
  Alcotest.(check int) "two slots" 2 (List.length slots);
  let x_slot =
    List.find (fun s -> s.Optimize.Search.slot_component = "X") slots
  in
  Alcotest.(check int) "two options for X" 2
    (List.length x_slot.Optimize.Search.slot_options);
  (* Non-safety-related rows contribute no slot. *)
  let with_extra =
    table
      (two_slot_table.Fmea.Table.rows
      @ [
          Fmea.Table.make_row ~component:"Z" ~component_fit:1.0 ~failure_mode:"h"
            ~distribution_pct:100.0 ~safety_related:false ();
        ])
  in
  Alcotest.(check int) "still two" 2
    (List.length (Optimize.Search.slots with_extra catalogue))

let test_evaluate () =
  let c = Optimize.Search.evaluate two_slot_table [] in
  Alcotest.(check (float 1e-9)) "no deployment cost" 0.0 c.Optimize.Search.cost;
  Alcotest.(check (float 1e-9)) "spfm 0" 0.0 c.Optimize.Search.spfm_pct;
  let all =
    [
      Fmea.Fmeda.deploy ~component:"X" ~failure_mode:"f" (mech ~cost:4.0 "good" "X" "f" 95.0);
      Fmea.Fmeda.deploy ~component:"Y" ~failure_mode:"g" (mech ~cost:2.0 "only" "Y" "g" 90.0);
    ]
  in
  let c = Optimize.Search.evaluate two_slot_table all in
  Alcotest.(check (float 1e-9)) "cost" 6.0 c.Optimize.Search.cost;
  (* residual = 100*0.05 + 50*0.10 = 10; total = 150 -> spfm = 93.33 *)
  Alcotest.(check (float 0.01)) "spfm" 93.33 c.Optimize.Search.spfm_pct

let test_exhaustive_enumerates_all () =
  let candidates = Optimize.Search.exhaustive two_slot_table catalogue in
  (* (2 options + skip) * (1 option + skip) = 6 *)
  Alcotest.(check int) "6 combinations" 6 (List.length candidates)

let test_exhaustive_limit () =
  match
    Optimize.Search.exhaustive ~max_combinations:3 two_slot_table catalogue
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected limit error"

let test_pareto_front () =
  let candidates = Optimize.Search.exhaustive two_slot_table catalogue in
  let front = Optimize.Search.pareto_front candidates in
  (* Front must be strictly increasing in both cost and SPFM. *)
  let rec strictly_improving = function
    | a :: (b :: _ as rest) ->
        a.Optimize.Search.cost < b.Optimize.Search.cost
        && a.Optimize.Search.spfm_pct < b.Optimize.Search.spfm_pct
        && strictly_improving rest
    | _ -> true
  in
  Alcotest.(check bool) "strictly improving" true (strictly_improving front);
  (* No candidate dominates any front member. *)
  let dominated_by c other =
    other.Optimize.Search.spfm_pct >= c.Optimize.Search.spfm_pct
    && other.Optimize.Search.cost <= c.Optimize.Search.cost
    && (other.Optimize.Search.spfm_pct > c.Optimize.Search.spfm_pct
       || other.Optimize.Search.cost < c.Optimize.Search.cost)
  in
  List.iter
    (fun f ->
      Alcotest.(check bool) "front member undominated" false
        (List.exists (dominated_by f) candidates))
    front

let prop_pareto_covers =
  (* Every candidate is dominated-or-equalled by some front member. *)
  QCheck.Test.make ~name:"pareto front covers all candidates" ~count:60
    QCheck.(list_of_size (QCheck.Gen.int_range 1 30)
              (pair (QCheck.float_bound_inclusive 100.0) (QCheck.float_bound_inclusive 20.0)))
    (fun points ->
      let candidates =
        List.map
          (fun (spfm, cost) ->
            { Optimize.Search.deployments = []; spfm_pct = spfm; cost })
          points
      in
      let front = Optimize.Search.pareto_front candidates in
      front <> []
      && List.for_all
           (fun c ->
             List.exists
               (fun f ->
                 f.Optimize.Search.spfm_pct >= c.Optimize.Search.spfm_pct
                 && f.Optimize.Search.cost <= c.Optimize.Search.cost)
               front)
           candidates)

let test_cheapest_meeting () =
  let candidates = Optimize.Search.exhaustive two_slot_table catalogue in
  match
    Optimize.Search.cheapest_meeting ~target:Ssam.Requirement.ASIL_B candidates
  with
  | Some c ->
      (* ASIL-B needs >= 90%: "good"+"only" (93.33% at cost 6) is the only
         combination above 90. *)
      Alcotest.(check (float 1e-9)) "cost" 6.0 c.Optimize.Search.cost;
      Alcotest.(check bool) "meets" true (c.Optimize.Search.spfm_pct >= 90.0)
  | None -> Alcotest.fail "expected a solution"

let test_cheapest_meeting_none () =
  let candidates = Optimize.Search.exhaustive two_slot_table catalogue in
  Alcotest.(check bool) "ASIL-D unreachable" true
    (Optimize.Search.cheapest_meeting ~target:Ssam.Requirement.ASIL_D candidates
    = None)

let test_greedy_reaches_target () =
  let g =
    Optimize.Search.greedy ~target:Ssam.Requirement.ASIL_B two_slot_table
      catalogue
  in
  Alcotest.(check bool) "greedy meets ASIL-B" true (g.Optimize.Search.spfm_pct >= 90.0)

let test_greedy_stops_when_stuck () =
  (* No mechanisms at all: greedy returns the empty deployment. *)
  let g =
    Optimize.Search.greedy ~target:Ssam.Requirement.ASIL_B two_slot_table
      Reliability.Sm_model.empty
  in
  Alcotest.(check int) "no deployments" 0 (List.length g.Optimize.Search.deployments)

let test_optimise_end_to_end () =
  let chosen, front =
    Optimize.Search.optimise ~target:Ssam.Requirement.ASIL_B two_slot_table
      catalogue
  in
  Alcotest.(check bool) "found" true (Option.is_some chosen);
  Alcotest.(check bool) "front nonempty" true (front <> []);
  (* The chosen one is on (or dominated by nothing in) the front. *)
  let c = Option.get chosen in
  Alcotest.(check bool) "chosen is optimal for its cost" true
    (List.for_all
       (fun f ->
         not
           (f.Optimize.Search.cost <= c.Optimize.Search.cost
           && f.Optimize.Search.spfm_pct > c.Optimize.Search.spfm_pct
           && f.Optimize.Search.spfm_pct >= 90.0))
       front)

let test_optimise_greedy_fallback () =
  (* Many slots with many options exceed the exhaustive limit: optimise
     falls back to greedy and still returns a candidate. *)
  let rows = List.init 24 (fun i -> sr_row (Printf.sprintf "C%d" i) "f") in
  let mechanisms =
    List.concat_map
      (fun i ->
        [
          mech ~cost:1.0 "a" (Printf.sprintf "C%d" i) "f" 60.0;
          mech ~cost:2.0 "b" (Printf.sprintf "C%d" i) "f" 90.0;
          mech ~cost:4.0 "c" (Printf.sprintf "C%d" i) "f" 99.0;
        ])
      (List.init 24 Fun.id)
  in
  let chosen, _ =
    Optimize.Search.optimise ~target:Ssam.Requirement.ASIL_B (table rows)
      (Reliability.Sm_model.of_mechanisms mechanisms)
  in
  match chosen with
  | Some c -> Alcotest.(check bool) "fallback meets" true (c.Optimize.Search.spfm_pct >= 90.0)
  | None -> Alcotest.fail "expected greedy fallback solution"

(* ---------- streaming enumeration ---------- *)

let candidate_list = Alcotest.testable Optimize.Search.pp_candidate
    Optimize.Search.equal_candidate

let test_streaming_matches_list () =
  let listed = Optimize.Search.exhaustive two_slot_table catalogue in
  (* Window smaller than (and not dividing) the 6-candidate space, so
     the fold crosses window boundaries. *)
  let streamed =
    List.rev
      (Optimize.Search.exhaustive_fold ~window:4 two_slot_table catalogue
         ~init:[] ~f:(fun acc c -> c :: acc))
  in
  Alcotest.(check (list candidate_list)) "same candidates, same order" listed
    streamed

let test_streaming_optimise_matches_list () =
  let listed = Optimize.Search.exhaustive two_slot_table catalogue in
  let chosen, front =
    Optimize.Search.optimise ~target:Ssam.Requirement.ASIL_B two_slot_table
      catalogue
  in
  Alcotest.(check (option candidate_list)) "same cheapest"
    (Optimize.Search.cheapest_meeting ~target:Ssam.Requirement.ASIL_B listed)
    chosen;
  Alcotest.(check (list candidate_list)) "same pareto front"
    (Optimize.Search.pareto_front listed)
    front

let test_streaming_beyond_list_cap () =
  (* 9 slots x 3 options = 4^9 = 262 144 combinations: over the
     list-based cap (the list entry point must refuse) but well inside
     the streaming optimiser's budget — and the answer must be the
     exact search, not the greedy fallback. *)
  let n = 9 in
  let rows = List.init n (fun i -> sr_row (Printf.sprintf "C%d" i) "f") in
  let mechanisms =
    List.concat_map
      (fun i ->
        [
          mech ~cost:1.0 "a" (Printf.sprintf "C%d" i) "f" 60.0;
          mech ~cost:2.0 "b" (Printf.sprintf "C%d" i) "f" 90.0;
          mech ~cost:4.0 "c" (Printf.sprintf "C%d" i) "f" 99.0;
        ])
      (List.init n Fun.id)
  in
  let t = table rows and cat = Reliability.Sm_model.of_mechanisms mechanisms in
  (match Optimize.Search.exhaustive t cat with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "list-based entry point should refuse 262k combinations");
  let chosen, front =
    Optimize.Search.optimise ~target:Ssam.Requirement.ASIL_B t cat
  in
  (match chosen with
  | None -> Alcotest.fail "expected a solution"
  | Some c ->
      Alcotest.(check bool) "meets ASIL-B" true (c.Optimize.Search.spfm_pct >= 90.0);
      (* ASIL-B needs 90 %: deploying "b" (90 % coverage) everywhere
         gives exactly 90 at cost 18, and nothing cheaper reaches it. *)
      Alcotest.(check (float 1e-9)) "exact optimum cost" 18.0
        c.Optimize.Search.cost);
  (* The greedy fallback would return a single-element front. *)
  Alcotest.(check bool) "exhaustive front, not greedy" true
    (List.length front > 1)

(* ---------- the counter-incremental scan against the reference ---------- *)

(* The historical list expansion, first slot most significant: every
   combination with the slot empty, then each option in turn. *)
let rec expand = function
  | [] -> [ [] ]
  | (s : Optimize.Search.slot) :: rest ->
      let tails = expand rest in
      tails
      @ List.concat_map
          (fun m ->
            let d =
              Fmea.Fmeda.deploy ~component:s.Optimize.Search.slot_component
                ~failure_mode:s.Optimize.Search.slot_failure_mode m
            in
            List.map (fun t -> d :: t) tails)
          s.Optimize.Search.slot_options

let streamed ?window t cat =
  List.rev
    (Optimize.Search.exhaustive_fold ?window t cat ~init:[] ~f:(fun acc c ->
         c :: acc))

let all_targets = Ssam.Requirement.[ QM; ASIL_A; ASIL_B; ASIL_C; ASIL_D ]

let at_jobs jobs f =
  let saved = Exec.default_jobs () in
  Fun.protect
    ~finally:(fun () -> Exec.set_default_jobs saved)
    (fun () ->
      Exec.set_default_jobs jobs;
      f ())

(* [optimise] must be the cheapest-meeting / Pareto pass over the
   reference candidate list, at every target. *)
let optimise_matches expected t cat =
  List.for_all
    (fun target ->
      let chosen, front = Optimize.Search.optimise ~target t cat in
      Option.equal Optimize.Search.equal_candidate
        (Optimize.Search.cheapest_meeting ~target expected)
        chosen
      && List.equal Optimize.Search.equal_candidate
           (Optimize.Search.pareto_front expected)
           front)
    all_targets

(* [exhaustive_fold] must yield [evaluate] of each decoded combination,
   in counter order, for every window size and job count; [optimise]
   must be the cheapest-meeting / Pareto pass over that list. *)
let scan_matches_reference t cat =
  let expected =
    List.map (Optimize.Search.evaluate t) (expand (Optimize.Search.slots t cat))
  in
  let same_list = List.equal Optimize.Search.equal_candidate expected in
  List.for_all
    (fun jobs ->
      at_jobs jobs (fun () ->
          List.for_all
            (fun window -> same_list (streamed ?window t cat))
            [ Some 1; Some 3; None ]
          && optimise_matches expected t cat))
    [ 1; 4 ]

let row ?(sr = true) ?cov ?spf ?(fit = 100.0) ?(dist = 100.0) component fmode =
  let r =
    Fmea.Table.make_row ?sm_coverage_pct:cov ~component ~component_fit:fit
      ~failure_mode:fmode ~distribution_pct:dist ~safety_related:sr ()
  in
  match spf with None -> r | Some f -> { r with Fmea.Table.single_point_fit = f }

let scan_cases =
  [
    ( "case variants",
      [ row "MC1" "RAM"; row ~fit:40.0 "mc1" "ram"; row "MC1" "Ram" ],
      [ mech ~cost:2.0 "ecc" "MC1" "ram" 99.0; mech ~cost:1.0 "p" "mc1" "RAM" 60.0 ]
    );
    ( "duplicate rows",
      [ row ~dist:50.0 "X" "f"; row ~dist:50.0 "X" "f"; row ~fit:30.0 "Y" "g" ],
      [ mech "a" "X" "f" 60.0; mech ~cost:3.0 "b" "X" "f" 90.0; mech "c" "Y" "g" 80.0 ]
    );
    ( "non-safety-related row matched",
      [ row ~dist:60.0 "X" "f"; row ~sr:false ~spf:7.0 ~dist:40.0 "X" "F";
        row ~sr:false ~spf:3.0 "x" "f" ],
      [ mech "a" "X" "f" 90.0 ] );
    ( "equal-coverage ties",
      [ row "X" "f"; row "x" "F"; row ~fit:20.0 "Y" "g" ],
      [ mech ~cost:1.0 "a" "X" "f" 90.0; mech ~cost:2.0 "b" "X" "f" 90.0;
        mech ~cost:1.0 "c" "Y" "g" 90.0 ] );
    ( "zero and equal costs",
      [ row "X" "f"; row ~fit:50.0 "Y" "g"; row ~fit:50.0 "Z" "h" ],
      [ mech ~cost:0.0 "a" "X" "f" 60.0; mech ~cost:0.0 "b" "Y" "g" 60.0;
        mech ~cost:2.0 "c" "Z" "h" 90.0; mech ~cost:2.0 "d" "X" "f" 99.0 ] );
    ( "zero safety-related FIT",
      [ row ~fit:0.0 "X" "f"; row ~fit:0.0 "Y" "g" ],
      [ mech "a" "X" "f" 90.0; mech "b" "Y" "g" 60.0 ] );
    ( "SPFM a rounding step apart",
      (* Deploying on X leaves ~4e-10 % more SPFM than on Y at the same
         cost: X, later in counter order, must displace Y on the front. *)
      [ row ~fit:100.000000001 "X" "f"; row "Y" "g" ],
      [ mech "a" "X" "f" 90.0; mech "b" "Y" "g" 90.0 ] );
    ( "already covered rows",
      [ row ~cov:60.0 "X" "f"; row ~fit:30.0 "Y" "g" ],
      [ mech "a" "X" "f" 90.0; mech "b" "Y" "g" 99.0 ] );
  ]

let test_scan_cases () =
  List.iter
    (fun (name, rows, mechanisms) ->
      Alcotest.(check bool) name true
        (scan_matches_reference (table rows)
           (Reliability.Sm_model.of_mechanisms mechanisms)))
    scan_cases

(* [greedy] against the list-based reference on every scan case, and on
   duplicate rows whose shared deployment is replaced: a move from
   either row's slot replaces the one deployment, so its cost delta
   subtracts the replaced mechanism's (here negative) cost, and Y's
   mechanism goes before the upgrade. *)
let greedy_cases =
  scan_cases
  @ [
      ( "duplicate rows, one deployment replaced",
        [ row ~dist:50.0 "X" "f"; row ~dist:50.0 "X" "f"; row "Y" "g" ],
        [ mech ~cost:(-0.5) "a" "X" "f" 60.0; mech ~cost:4.0 "b" "X" "f" 90.0;
          mech ~cost:12.5 "c" "Y" "g" 90.0 ] );
    ]

let greedy_matches_reference t cat =
  List.for_all
    (fun target ->
      Optimize.Search.equal_candidate
        (Oracle.Greedy_search.greedy ~target t cat)
        (Optimize.Search.greedy ~target t cat))
    all_targets

let test_greedy_cases () =
  List.iter
    (fun (name, rows, mechanisms) ->
      Alcotest.(check bool) name true
        (greedy_matches_reference (table rows)
           (Reliability.Sm_model.of_mechanisms mechanisms)))
    greedy_cases

(* Random small tables over a name pool with case variants, so slots,
   duplicate rows and non-safety-related matches collide freely.  Costs
   include non-dyadic, zero and negative values; coverages 0 and 100;
   rows may be covered already (a deployment can then raise their
   single-point FIT); the small pools make exact SPFM and cost ties
   common. *)
let gen_row =
  let open QCheck.Gen in
  let pick l = oneofl l in
  map
    (fun ((c, f, sr, fit), (dist, cov, spf)) ->
      row ~sr ?cov ?spf ~fit ~dist c f)
    (pair
       (quad
          (pick [ "A"; "a"; "B"; "C"; "D" ])
          (pick [ "f"; "F"; "g" ])
          (frequency [ (4, return true); (1, return false) ])
          (pick [ 0.0; 10.0; 25.5; 100.0 ]))
       (triple (pick [ 0.0; 30.0; 70.0; 100.0 ])
          (opt (pick [ 50.0; 90.0; 100.0 ]))
          (opt (pick [ 2.0 ]))))

let gen_mech =
  let open QCheck.Gen in
  let pick l = oneofl l in
  map
    (fun ((i, c, f), (cov, cost)) -> mech ~cost (Printf.sprintf "m%d" i) c f cov)
    (pair
       (triple (int_bound 3) (pick [ "A"; "b"; "C"; "d" ]) (pick [ "f"; "G" ]))
       (pair
          (pick [ 0.0; 60.0; 90.0; 100.0 ])
          (pick [ 0.0; 0.1; 0.7; 1e-3; 1.0; 2.5; -0.5 ])))

let print_case (rows, mechanisms) =
  Format.asprintf "%a@.%a"
    (Format.pp_print_list Fmea.Table.pp_row)
    rows
    (Format.pp_print_list Reliability.Sm_model.pp_mechanism)
    mechanisms

let prop_scan_matches_reference =
  let open QCheck.Gen in
  QCheck.Test.make ~name:"incremental scan = evaluate per combination"
    ~count:150
    (QCheck.make ~print:print_case
       (pair (list_size (int_range 1 12) gen_row)
          (list_size (int_range 0 14) gen_mech)))
    (fun (rows, mechanisms) ->
      let t = table rows in
      let cat = Reliability.Sm_model.of_mechanisms mechanisms in
      let slots = Optimize.Search.slots t cat in
      QCheck.assume
        (List.length slots <= 8
        && List.fold_left
             (fun n s -> n * (1 + List.length s.Optimize.Search.slot_options))
             1 slots
           <= 3_000);
      scan_matches_reference t cat)

(* [greedy] on the scan against the list-based greedy that scores each
   move with [evaluate]: the same deployments in the same order, SPFM
   and cost bit for bit, at every target and job count.  The catalogue
   repeats some of its records, so a slot can offer equal mechanisms. *)
let prop_greedy_matches_reference =
  let open QCheck.Gen in
  let gen_catalogue =
    list_size (int_range 0 14) gen_mech >>= function
    | [] -> return []
    | ms -> map (fun copies -> ms @ copies) (list_size (int_bound 4) (oneofl ms))
  in
  QCheck.Test.make ~name:"greedy = list-based greedy reference" ~count:200
    (QCheck.make ~print:print_case
       (pair (list_size (int_range 1 12) gen_row) gen_catalogue))
    (fun (rows, mechanisms) ->
      let t = table rows in
      let cat = Reliability.Sm_model.of_mechanisms mechanisms in
      List.for_all
        (fun jobs -> at_jobs jobs (fun () -> greedy_matches_reference t cat))
        [ 1; 4 ])

(* A space where no subtree can be skipped: 10 slots of 2 options, each
   costing in proportion to the FIT it covers, so every subtree holds a
   candidate that nothing cheaper matches.  All 59,049 combinations are
   scored, over eight windows, and the result is still the reference's
   at every target and job count. *)
let test_nothing_to_prune () =
  let rows = List.init 10 (fun i -> sr_row (Printf.sprintf "C%d" i) "f") in
  let mechanisms =
    List.concat_map
      (fun i ->
        let c = Printf.sprintf "C%d" i in
        [ mech ~cost:0.6 "a" c "f" 60.0; mech ~cost:0.9 "b" c "f" 90.0 ])
      (List.init 10 Fun.id)
  in
  let t = table rows and cat = Reliability.Sm_model.of_mechanisms mechanisms in
  let expected = Optimize.Search.exhaustive t cat in
  Alcotest.(check int) "3^10 candidates" 59_049 (List.length expected);
  List.iter
    (fun jobs ->
      at_jobs jobs (fun () ->
          Alcotest.(check bool)
            (Printf.sprintf "optimise = reference at %d jobs" jobs)
            true
            (optimise_matches expected t cat)))
    [ 1; 4 ];
  at_jobs 1 (fun () ->
      let counts = ref (0, 0) in
      ignore
        (Optimize.Search.optimise ~target:Ssam.Requirement.ASIL_B
           ~on_scored:(fun ~scored ~pruned -> counts := (scored, pruned))
           t cat);
      Alcotest.(check (pair int int)) "all scored, none skipped" (59_049, 0)
        !counts)

(* ---------- System B's step 4b, pinned ---------- *)

(* The search on System B under the benchmark's options (supplies
   excluded, the three safety sensors monitored, the extended catalogue):
   at every ASIL target the chosen deployment and the whole Pareto front,
   each SPFM and cost as its exact hexadecimal float.  The reliability
   model is read back from its spreadsheet, as the CLI loads it. *)
let system_b_reliability () =
  Reliability.Reliability_model.of_spreadsheet
    (Reliability.Reliability_model.to_spreadsheet
       Decisive.Systems.system_b.Decisive.Systems.reliability)

let system_b_search () =
  let subject = Decisive.Systems.system_b in
  let reliability = system_b_reliability () in
  let first_front = ref None in
  let buf = Buffer.create 4096 in
  let candidate (c : Optimize.Search.candidate) =
    Printf.bprintf buf "  cost %h (%.1f)  SPFM %h (%.4f%%)\n"
      c.Optimize.Search.cost c.Optimize.Search.cost c.Optimize.Search.spfm_pct
      c.Optimize.Search.spfm_pct;
    List.iter
      (fun (d : Fmea.Fmeda.deployment) ->
        Printf.bprintf buf "    %s on %s/%s\n"
          d.Fmea.Fmeda.mechanism.Reliability.Sm_model.sm_name
          d.Fmea.Fmeda.target_component d.Fmea.Fmeda.target_failure_mode)
      c.Optimize.Search.deployments
  in
  List.iter
    (fun target ->
      let r =
        Decisive.Api.fmeda ~target ~exclude:[ "DC1"; "BAT1" ]
          ~monitored_sensors:[ "CS1"; "CS2"; "VS1" ]
          subject.Decisive.Systems.diagram reliability
          Reliability.Sm_model.extended_catalogue
      in
      Printf.bprintf buf "target %s\nchosen:\n"
        (Ssam.Requirement.integrity_level_to_string target);
      (match r.Decisive.Api.chosen with
      | Some c -> candidate c
      | None -> Buffer.add_string buf "  none\n");
      Printf.bprintf buf "pareto front: %d" (List.length r.Decisive.Api.pareto_front);
      (* The front does not depend on the target: print it once, and
         after that only say that it is the same, bit for bit. *)
      match !first_front with
      | Some f
        when List.equal Optimize.Search.equal_candidate f
               r.Decisive.Api.pareto_front ->
          Buffer.add_string buf ", the QM front\n"
      | _ ->
          Buffer.add_char buf '\n';
          first_front := Some r.Decisive.Api.pareto_front;
          List.iter candidate r.Decisive.Api.pareto_front)
    Ssam.Requirement.[ QM; ASIL_A; ASIL_B; ASIL_C; ASIL_D ];
  Buffer.contents buf

let test_system_b_golden () =
  let golden =
    In_channel.with_open_bin "golden/system_b_search.txt" In_channel.input_all
  in
  List.iter
    (fun jobs ->
      Alcotest.(check string)
        (Printf.sprintf "search at %d jobs = golden/system_b_search.txt" jobs)
        golden
        (at_jobs jobs system_b_search))
    [ 1; 4 ]

let suite =
  [
    Alcotest.test_case "slots" `Quick test_slots;
    Alcotest.test_case "evaluate" `Quick test_evaluate;
    Alcotest.test_case "exhaustive enumerates" `Quick test_exhaustive_enumerates_all;
    Alcotest.test_case "exhaustive limit" `Quick test_exhaustive_limit;
    Alcotest.test_case "pareto front" `Quick test_pareto_front;
    QCheck_alcotest.to_alcotest prop_pareto_covers;
    Alcotest.test_case "cheapest meeting" `Quick test_cheapest_meeting;
    Alcotest.test_case "cheapest meeting none" `Quick test_cheapest_meeting_none;
    Alcotest.test_case "greedy reaches target" `Quick test_greedy_reaches_target;
    Alcotest.test_case "greedy stops when stuck" `Quick test_greedy_stops_when_stuck;
    Alcotest.test_case "optimise end-to-end" `Quick test_optimise_end_to_end;
    Alcotest.test_case "optimise greedy fallback" `Quick test_optimise_greedy_fallback;
    Alcotest.test_case "streaming matches list" `Quick test_streaming_matches_list;
    Alcotest.test_case "streaming optimise matches list" `Quick
      test_streaming_optimise_matches_list;
    Alcotest.test_case "streaming beyond list cap" `Slow
      test_streaming_beyond_list_cap;
    Alcotest.test_case "scan = evaluate on edge cases" `Quick test_scan_cases;
    QCheck_alcotest.to_alcotest prop_scan_matches_reference;
    Alcotest.test_case "greedy = reference on edge cases" `Quick
      test_greedy_cases;
    QCheck_alcotest.to_alcotest prop_greedy_matches_reference;
    Alcotest.test_case "nothing to prune" `Quick test_nothing_to_prune;
    Alcotest.test_case "System B search golden" `Quick test_system_b_golden;
  ]
