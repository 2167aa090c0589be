(* Tests for the analyst process model: the deterministic RNG, the cost
   model calibration, and the RQ1/RQ3 experiments. *)

open Harness
module Rng = Assess.Rng

(* ---------- Rng ---------- *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  let xs = List.init 10 (fun _ -> Rng.float a) in
  let ys = List.init 10 (fun _ -> Rng.float b) in
  Alcotest.(check bool) "same seed, same stream" true (xs = ys);
  let c = Rng.create 43 in
  let zs = List.init 10 (fun _ -> Rng.float c) in
  Alcotest.(check bool) "different seed differs" true (xs <> zs)

let test_rng_ranges () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.range rng ~min:2 ~max:6 in
    if v < 2 || v > 6 then Alcotest.fail "range out of bounds"
  done;
  for _ = 1 to 1000 do
    let f = Rng.float rng in
    if f < 0.0 || f >= 1.0 then Alcotest.fail "float out of bounds"
  done;
  Alcotest.check_raises "bad range" (Invalid_argument "Rng.range: min > max")
    (fun () -> ignore (Rng.range rng ~min:3 ~max:2))

let test_rng_distributions () =
  let rng = Rng.create 99 in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.gaussian rng ~mean:10.0 ~stddev:2.0
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) (Printf.sprintf "gaussian mean ~10, got %g" mean) true
    (Float.abs (mean -. 10.0) < 0.1);
  let hits = ref 0 in
  for _ = 1 to n do
    if Rng.bernoulli rng ~p:0.25 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) (Printf.sprintf "bernoulli ~0.25, got %g" rate) true
    (Float.abs (rate -. 0.25) < 0.02)

let test_rng_split () =
  (* Splitting is pure: the parent's sequence is unchanged by it. *)
  let a = Rng.create 42 and b = Rng.create 42 in
  let _ = Rng.split a 0 and _ = Rng.split a 7 in
  Alcotest.(check bool) "split leaves parent untouched" true
    (List.init 10 (fun _ -> Rng.next_int64 a)
    = List.init 10 (fun _ -> Rng.next_int64 b));
  (* Same index twice gives the same stream; distinct indices differ. *)
  let p = Rng.create 5 in
  Alcotest.(check bool) "same index, same stream" true
    (Rng.next_int64 (Rng.split p 3) = Rng.next_int64 (Rng.split p 3));
  Alcotest.(check bool) "distinct indices, distinct streams" true
    (Rng.next_int64 (Rng.split p 3) <> Rng.next_int64 (Rng.split p 4));
  Alcotest.check_raises "negative index"
    (Invalid_argument "Rng.split: negative stream index") (fun () ->
      ignore (Rng.split p (-1)));
  (* Statistical smoke: the first 1k draws of 64 sibling streams (and of
     the parent) never collide — 65k SplitMix64 outputs are birthday-safe
     by ~2^25, so any collision means the split is broken. *)
  let seen = Hashtbl.create (65 * 1_000) in
  let collisions = ref 0 in
  let drain rng =
    for _ = 1 to 1_000 do
      let v = Rng.next_int64 rng in
      if Hashtbl.mem seen v then incr collisions else Hashtbl.add seen v ()
    done
  in
  let master = Rng.create 2024 in
  for i = 0 to 63 do
    drain (Rng.split master i)
  done;
  drain master;
  Alcotest.(check int) "no collision across 65 streams x 1k draws" 0
    !collisions

let test_rng_exponential () =
  let rng = Rng.create 17 in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential rng ~rate:4.0
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) (Printf.sprintf "exponential mean ~1/4, got %g" mean)
    true
    (Float.abs (mean -. 0.25) < 0.01);
  Alcotest.check_raises "bad rate"
    (Invalid_argument "Rng.exponential: rate must be positive") (fun () ->
      ignore (Rng.exponential rng ~rate:0.0))

(* ---------- Cost model / durations ---------- *)

let profile_a =
  {
    Process.system_name = "A";
    element_count = 102;
    analysable_components = 34;
    failure_mode_count = 67;
    safety_related_count = 7;
  }

let profile_b =
  {
    Process.system_name = "B";
    element_count = 230;
    analysable_components = 70;
    failure_mode_count = 139;
    safety_related_count = 15;
  }

let test_duration_calibration () =
  (* Manual System A with 5 iterations lands near the paper's 505 min. *)
  let rng = Rng.create 1 in
  let s =
    Process.duration ~rng ~mode:Cost_model.Manual
      ~profile:Cost_model.participant_a ~iterations:5 profile_a
  in
  Alcotest.(check bool)
    (Printf.sprintf "manual A in [400, 620], got %g" s.Process.minutes)
    true
    (s.Process.minutes > 400.0 && s.Process.minutes < 620.0);
  let rng = Rng.create 1 in
  let a =
    Process.duration ~rng ~mode:Cost_model.Assisted
      ~profile:Cost_model.participant_b ~iterations:2 profile_a
  in
  Alcotest.(check bool)
    (Printf.sprintf "assisted A in [40, 90], got %g" a.Process.minutes)
    true
    (a.Process.minutes > 40.0 && a.Process.minutes < 90.0)

let test_duration_breakdown () =
  let rng = Rng.create 2 in
  let s =
    Process.duration ~rng ~mode:Cost_model.Manual
      ~profile:Cost_model.participant_a ~iterations:3 profile_a
  in
  (* Breakdown sums to the total and is sorted descending. *)
  let total = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 s.Process.breakdown in
  Alcotest.(check bool) "breakdown sums to total" true
    (Float.abs (total -. s.Process.minutes) < 1e-6);
  let values = List.map snd s.Process.breakdown in
  Alcotest.(check bool) "descending" true
    (List.sort (fun a b -> Float.compare b a) values = values);
  (* Manual mode has no tool activities. *)
  Alcotest.(check bool) "no tool rows in manual" true
    (not (List.mem_assoc "automated runs" s.Process.breakdown))

let test_iterations_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 200 do
    let m = Process.draw_iterations ~rng ~mode:Cost_model.Manual in
    let a = Process.draw_iterations ~rng ~mode:Cost_model.Assisted in
    if m < 2 || m > 6 || a < 2 || a > 6 then Alcotest.fail "iterations out of 2..6"
  done

(* ---------- Efficiency study (RQ3 / Table V) ---------- *)

let test_efficiency_shape () =
  let rows =
    Experiment.efficiency_study ~seed:2022 ~systems:(profile_a, profile_b)
  in
  Alcotest.(check int) "eight rows (two settings)" 8 (List.length rows);
  (* Every manual run is slower than every assisted run of the same system. *)
  List.iter
    (fun system ->
      let of_mode m =
        List.filter
          (fun r -> r.Experiment.mode = m && r.Experiment.system = system)
          rows
      in
      let slowest_assisted =
        List.fold_left
          (fun acc r -> Float.max acc r.Experiment.time_minutes)
          0.0
          (of_mode Cost_model.Assisted)
      in
      List.iter
        (fun r ->
          Alcotest.(check bool) "manual slower than assisted" true
            (r.Experiment.time_minutes > slowest_assisted))
        (of_mode Cost_model.Manual))
    [ "A"; "B" ];
  (* The paper's headline: "approximately a tenfold increase in efficiency". *)
  let speedup = Experiment.speedup rows in
  Alcotest.(check bool) (Printf.sprintf "speedup ~10x, got %.1f" speedup) true
    (speedup > 6.0 && speedup < 14.0)

let test_efficiency_deterministic () =
  let a = Experiment.efficiency_study ~seed:5 ~systems:(profile_a, profile_b) in
  let b = Experiment.efficiency_study ~seed:5 ~systems:(profile_a, profile_b) in
  Alcotest.(check bool) "same seed reproduces" true (a = b)

(* ---------- Correctness study (RQ1) ---------- *)

let automated_table = Fixtures.Systems.automated_fmea Fixtures.Systems.system_a

let test_correctness_components_agree () =
  (* Across many seeds, the manual analyst never changes the set of
     safety-related components — the paper's key observation. *)
  for seed = 1 to 30 do
    let r =
      Experiment.correctness_study ~seed ~name:"A" ~element_count:102
        automated_table
    in
    Alcotest.(check bool)
      (Printf.sprintf "components agree (seed %d)" seed)
      true r.Experiment.components_agree
  done

let test_correctness_difference_band () =
  (* Row-level differences stay small (the paper: 1.5% and 2.67%). *)
  let total = ref 0.0 in
  for seed = 1 to 30 do
    let r =
      Experiment.correctness_study ~seed ~name:"A" ~element_count:102
        automated_table
    in
    total := !total +. r.Experiment.difference_pct
  done;
  let mean = !total /. 30.0 in
  Alcotest.(check bool) (Printf.sprintf "mean diff in [0.3, 5], got %g" mean)
    true
    (mean > 0.3 && mean < 5.0)

let test_manual_classification_conservative_only () =
  let rng = Rng.create 11 in
  let manual =
    Process.manual_classification ~rng ~profile:Cost_model.participant_a
      automated_table
  in
  (* No safety-related row was downgraded. *)
  List.iter2
    (fun (auto : Fmea.Table.row) (man : Fmea.Table.row) ->
      if auto.Fmea.Table.safety_related then
        Alcotest.(check bool) "no downgrade" true man.Fmea.Table.safety_related)
    automated_table.Fmea.Table.rows manual.Fmea.Table.rows

let suite =
  [
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng ranges" `Quick test_rng_ranges;
    Alcotest.test_case "rng split streams" `Quick test_rng_split;
    Alcotest.test_case "rng exponential" `Quick test_rng_exponential;
    Alcotest.test_case "rng distributions" `Quick test_rng_distributions;
    Alcotest.test_case "duration calibration" `Quick test_duration_calibration;
    Alcotest.test_case "duration breakdown" `Quick test_duration_breakdown;
    Alcotest.test_case "iterations bounds" `Quick test_iterations_bounds;
    Alcotest.test_case "efficiency shape" `Quick test_efficiency_shape;
    Alcotest.test_case "efficiency deterministic" `Quick test_efficiency_deterministic;
    Alcotest.test_case "correctness: components agree" `Quick
      test_correctness_components_agree;
    Alcotest.test_case "correctness: difference band" `Quick
      test_correctness_difference_band;
    Alcotest.test_case "manual classification conservative" `Quick
      test_manual_classification_conservative_only;
  ]
