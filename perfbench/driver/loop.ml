(* The closed loop shared by all workloads: one op at a time, in the fixed
   cyclic order, timed from the generator's side; whole cycles only, so
   every run sees the same op mix. *)

type phase = {
  classes : (string * float) list;  (** op class and latency in seconds, one per op *)
  failed : int;
  wall_s : float;
  untimed_s : float;  (** time spent in [between], not charged to the ops *)
  calib : float list;  (** Calib.sample before the first op, then after each op *)
}

let ops p = List.length p.classes
let latencies p = List.map snd p.classes

(* A run must end within a fixed time whatever the program's speed. *)
let deadline = ref infinity
let set_deadline seconds = deadline := Sut.now () +. seconds

(* [step i] performs op [i] and returns (class, latency, ok).  A
   Calib.sample precedes the first op and follows every op, off the ops'
   clock.  [between ~elapsed i] runs after that, also off the clock: the traced
   replay of the op, or a set-up sample; [elapsed] is the phase's time so
   far.  The phase runs from op [first] until [seconds] have passed and at
   least [min_ops] ops are done, then finishes the cycle it is in. *)
let run ~cycle ~first ~seconds ~min_ops ?(on_op = fun _ -> ()) ?between step =
  let c0 = Calib.sample () in
  let t0 = Sut.now () in
  let rec go i classes failed untimed_s calib =
    let n = i - first in
    let elapsed = Sut.now () -. t0 in
    let enough = elapsed >= seconds && n >= min_ops && n mod cycle = 0 in
    if enough || Sut.now () >= !deadline then
      { classes = List.rev classes; failed; wall_s = elapsed; untimed_s; calib = List.rev calib }
    else begin
      Trace.op_id := i;
      let cls, latency, ok = step i in
      let b0 = Sut.now () in
      let c = Calib.sample () in
      let untimed_s = untimed_s +. (Sut.now () -. b0) in
      let untimed_s =
        match between with
        | Some b ->
            let b0 = Sut.now () in
            b ~elapsed:(b0 -. t0) i;
            untimed_s +. (Sut.now () -. b0)
        | None -> untimed_s
      in
      on_op (n + 1);
      go (i + 1) ((cls, latency) :: classes)
        (if ok then failed else failed + 1)
        untimed_s (c :: calib)
    end
  in
  go first [] 0 0.0 [ c0 ]

(* Each op's latency in reference seconds (Calib): op [i] of the phase
   runs between calibration samples [i] and [i + 1]. *)
let ref_latencies p =
  let c = Array.of_list p.calib in
  List.mapi (fun i (_, l) -> l *. Calib.factor c.(i) c.(i + 1)) p.classes

(* The phase's host factor, weighted by op time: reference over measured
   seconds, for figures that are not per op (throughput, CPU). *)
let host_factor p = Stat.sum (ref_latencies p) /. Stat.sum (latencies p)

(* ops/s of a phase, charged only for its real ops, not for the untimed
   work between them (calibration included): as measured, and in
   reference seconds. *)
let raw_ops_per_s p = float_of_int (ops p) /. (p.wall_s -. p.untimed_s)
let ops_per_s p = raw_ops_per_s p /. host_factor p

(* Extra samples of a set-up, taken at [count] evenly spaced moments of a
   phase of [seconds], at the first cycle boundary after each: a
   [between] for Loop.run.  The set-up is sampled across the whole run,
   not only before it, so its median sees the same host conditions as
   the timed ops. *)
let spread ~cycle ~seconds ~count sample =
  let taken = ref 0 in
  fun ~elapsed i ->
    if
      (i + 1) mod cycle = 0
      && !taken < count
      && elapsed >= float_of_int (!taken + 1) *. seconds /. float_of_int (count + 1)
    then begin
      incr taken;
      sample ()
    end

(* Root-span latency minus the op's replayed stage time, per op. *)
let residuals () =
  let stage = Hashtbl.create 1024 and latency = Hashtbl.create 1024 in
  List.iter
    (fun ((s : Trace.span), self) ->
      match s.Trace.kind with
      | Trace.Stage ->
          Hashtbl.replace stage s.Trace.op
            (Option.value ~default:0.0 (Hashtbl.find_opt stage s.Trace.op) +. self)
      | Trace.Op -> Hashtbl.replace latency s.Trace.op (s.Trace.t1 -. s.Trace.t0)
      | Trace.Probe -> ())
    (Trace.self_times ());
  Hashtbl.fold
    (fun op l acc -> (l, Option.value ~default:0.0 (Hashtbl.find_opt stage op)) :: acc)
    latency []

(* Sum of stage self times (plus [floor_s] per op, the process-start
   floor of CLI ops) over the sum of op latencies. *)
let coverage ~floor_s =
  let pairs = residuals () in
  let lat = Stat.sum (List.map fst pairs) and st = Stat.sum (List.map snd pairs) in
  (st +. (floor_s *. float_of_int (List.length pairs))) /. lat

let failed_msg fmt = Printf.ksprintf (fun m -> prerr_endline ("check failed: " ^ m)) fmt

(* Tolerance on trace.coverage: the replayed stages (plus the
   process-start floor) must account for the op's measured latency within
   this band, or the layer breakdown is missing a stage. *)
let coverage_low = 0.8
let coverage_high = 1.2
