(* perfbench: one workload of the repository's benchmark, end to end
   against the real `same` binary.

     perfbench --workload edit-loop|cold-analysis|fault-tree --seed N
               --seconds S --trace 0|1 --same PATH
     perfbench --emit DIR [--seed N]

   Prints a human-readable summary and, as its last line, one JSON object
   {correct, attempted, failed, metrics}.  With --trace 0 the metrics are
   the end-to-end ones, measured with tracing off; with --trace 1 they are
   the per-layer ones of a traced replay of the same op schedule (see
   NOTES.md).  Normally run through run.py, which builds this program and
   bin/same.exe from source first.  --emit writes the generated designs
   and trees for a seed to DIR, so the slow paths NOTES.md lists can be
   reproduced with the plain CLI. *)

let usage () =
  prerr_endline
    "usage: perfbench --workload edit-loop|cold-analysis|fault-tree --seed N --seconds S --trace \
     0|1 --same PATH\n       perfbench --emit DIR [--seed N]";
  exit 2

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  same : string;
  emit : string option;
}

let parse_args () =
  let a = ref { workload = ""; seed = 1; seconds = 10.0; trace = false; same = ""; emit = None } in
  let rec go = function
    | "--workload" :: v :: t -> a := { !a with workload = v }; go t
    | "--seed" :: v :: t -> a := { !a with seed = int_of_string v }; go t
    | "--seconds" :: v :: t -> a := { !a with seconds = float_of_string v }; go t
    | "--trace" :: v :: t -> a := { !a with trace = v = "1" }; go t
    | "--same" :: v :: t -> a := { !a with same = v }; go t
    | "--emit" :: v :: t -> a := { !a with emit = Some v }; go t
    | [] -> ()
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if !a.emit = None && (!a.same = "" || not (Sys.file_exists !a.same)) then usage ();
  !a

(* Fixed inputs (System B, the PSU) and the directory a run writes to,
   relative to the checkout root. *)
let inputs = "perfbench/inputs"
let work = ".perfbench"

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

type outcome = {
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;
}

let ms x = 1000.0 *. x

(* The end-to-end metric set, the same names on every workload.  Times
   are in reference seconds (Calib); the summary line prints them as
   measured too.  [setups] are already in reference seconds. *)
let end_to_end ~(phase : Loop.phase) ~cpu_s ~rss_kb ~setups =
  let n = Loop.ops phase in
  let raw = Loop.latencies phase and lat = Loop.ref_latencies phase in
  let host = Loop.host_factor phase in
  Printf.printf "timed ops %d (%d beyond p90), wall %.2f s, set-ups %s s\n" n
    (Stat.beyond 90.0 lat) phase.Loop.wall_s
    (String.concat " " (List.map (Printf.sprintf "%.4f") setups));
  Printf.printf
    "host factor %.4f (calibration median %.4f ms, reference %.4f ms); as measured: %.4f ops/s, \
     p50 %.4f ms, p90 %.4f ms, cpu %.4f ms/op\n"
    host (ms (Stat.median phase.Loop.calib)) (ms Calib.reference_s) (Loop.raw_ops_per_s phase)
    (ms (Stat.percentile 50.0 raw)) (ms (Stat.percentile 90.0 raw)) (ms cpu_s /. float_of_int n);
  [
    ("ops_per_s", Loop.ops_per_s phase, "1/s");
    ("p50_ms", ms (Stat.percentile 50.0 lat), "ms");
    ("p90_ms", ms (Stat.percentile 90.0 lat), "ms");
    ("cpu_ms_per_op", host *. ms cpu_s /. float_of_int n, "ms");
    ("peak_rss_mb", float_of_int rss_kb /. 1024.0, "MB");
    ("setup_s", Stat.median setups, "s");
  ]

let print_classes (phase : Loop.phase) =
  let tbl = Hashtbl.create 8 in
  List.iter2
    (fun (c, _) l -> Hashtbl.replace tbl c (l :: Option.value ~default:[] (Hashtbl.find_opt tbl c)))
    phase.Loop.classes (Loop.ref_latencies phase);
  Hashtbl.iter
    (fun c ls ->
      Printf.printf "  %-22s n=%5d  p50 %9.3f ms  p90 %9.3f ms\n" c (List.length ls)
        (ms (Stat.percentile 50.0 ls)) (ms (Stat.percentile 90.0 ls)))
    tbl

(* Shared tail of every traced run. *)
let traced_metrics ~workload ~(traced : Loop.phase) ~untraced_ops_s ~floor_s ~failed ~attempted
    extra =
  let ops = Loop.ops traced in
  let coverage = Loop.coverage ~floor_s in
  let overhead = (untraced_ops_s -. Loop.ops_per_s traced) /. untraced_ops_s in
  Layers.print_table ~workload ~ops;
  Printf.printf "trace.coverage %.3f (tolerance %.2f-%.2f: %s), trace.overhead %.4f\n" coverage
    Loop.coverage_low Loop.coverage_high
    (if coverage >= Loop.coverage_low && coverage <= Loop.coverage_high then "within" else "OUTSIDE")
    overhead;
  let spans = Filename.concat work (Printf.sprintf "spans-%s.jsonl" workload) in
  Trace.write spans;
  Printf.printf "span file: %s\n" spans;
  let host = Loop.host_factor traced in
  Printf.printf "host factor %.4f: the table above is as measured, the per-layer metrics in reference time\n"
    host;
  Layers.report ~ops ~host
    ~extra:
      (extra
      @ [
          ("process.start.ms", host *. ms floor_s);
          ("trace.coverage", coverage);
          ("trace.overhead", overhead);
          ("error_rate", float_of_int failed /. float_of_int attempted);
        ])
  |> List.map (fun (n, v) -> (n, v, Layers.unit_of n))

(* ---------- cold-analysis and fault-tree: fresh processes ---------- *)

(* Set-ups in a run: one before the timed phase and the rest spread over
   it (Loop.spread).  A CLI set-up costs one pass over the op cycle,
   under a second, so it is taken five times; a daemon set-up costs tens
   of ms, so it is taken 25 times. *)
let cli_setups = 5
let daemon_setups = 25

let cli_workload make_ops a ~dir =
  let cpu = ref 0.0 and rss = ref 0 in
  (* One op: spawn, wait, check.  Returns (class, child, ok). *)
  let op_run ops i =
    let op = ops.(i mod Array.length ops) in
    let stdout = Filename.concat dir "op.out" in
    let argv = Array.append [| a.same |] (op.Cli.argv i) in
    List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) op.Cli.outputs;
    let c =
      Trace.op ("cli." ^ op.Cli.label) (fun () ->
          Sut.run_child ~stdout ~stderr:(Filename.concat dir "op.err") argv)
    in
    let ok =
      c.Sut.code = 0
      &&
      match op.Cli.check ~stdout:(Inputs.read stdout) with
      | Ok () -> true
      | Error m ->
          Loop.failed_msg "op %d (%s): %s" i op.Cli.label m;
          false
      | exception e ->
          Loop.failed_msg "op %d (%s): %s" i op.Cli.label (Printexc.to_string e);
          false
    in
    if c.Sut.code <> 0 then Loop.failed_msg "op %d (%s): exit %d" i op.Cli.label c.Sut.code;
    (op.Cli.label, c, ok)
  in
  (* A timed op: CPU and peak RSS of the child count. *)
  let timed ops i =
    let label, c, ok = op_run ops i in
    cpu := !cpu +. c.Sut.cpu_s;
    rss := Int.max !rss c.Sut.maxrss_kb;
    (label, c.Sut.wall_s, ok)
  in
  (* Set-up: write every input from the seed, then one untimed pass over
     the cycle. *)
  let setups = ref [] and warm_failed = ref 0 in
  let setup () =
    let ops, t =
      Calib.timed (fun () ->
          let ops = make_ops ~inputs ~dir ~seed:a.seed in
          Array.iteri
            (fun i _ ->
              let _, _, ok = op_run ops i in
              if not ok then incr warm_failed)
            ops;
          ops)
    in
    setups := t :: !setups;
    ops
  in
  let ops = setup () in
  let cycle = Array.length ops in
  let phase ~seconds ~min_ops ?between () =
    Loop.run ~cycle ~first:cycle ~seconds ~min_ops ?between (timed ops)
  in
  if not a.trace then begin
    (* at least 100 ops, so that ten or more lie beyond p90 *)
    let p =
      phase ~seconds:a.seconds ~min_ops:100
        ~between:
          (Loop.spread ~cycle ~seconds:a.seconds ~count:(cli_setups - 1) (fun () ->
               ignore (setup ())))
        ()
    in
    print_classes p;
    let metrics = end_to_end ~phase:p ~cpu_s:!cpu ~rss_kb:!rss ~setups:(List.rev !setups) in
    {
      attempted = Loop.ops p + (List.length !setups * cycle);
      failed = p.Loop.failed + !warm_failed;
      metrics;
    }
  end
  else begin
    let u = phase ~seconds:(a.seconds /. 2.0) ~min_ops:cycle () in
    let floor_s =
      Stat.median
        (List.init 5 (fun _ -> (Sut.run_child [| a.same; "--version" |]).Sut.wall_s))
    in
    Trace.reset ();
    Layers.reset ();
    Trace.enabled := true;
    let t =
      phase ~seconds:(a.seconds /. 2.0) ~min_ops:(2 * cycle)
        ~between:(fun ~elapsed:_ i -> ops.(i mod cycle).Cli.replay i)
        ()
    in
    Trace.enabled := false;
    let attempted = Loop.ops u + Loop.ops t + cycle in
    let failed = u.Loop.failed + t.Loop.failed + !warm_failed in
    let metrics =
      traced_metrics ~workload:a.workload ~traced:t ~untraced_ops_s:(Loop.ops_per_s u)
        ~floor_s ~failed ~attempted [ ("serve.overhead.ms", 0.0) ]
    in
    { attempted; failed; metrics }
  end

(* ---------- edit-loop ---------- *)

(* Daemon peak RSS is read after a fixed number of timed ops: it grows
   with every edit, so a time-bounded op count would make it drift. *)
let rss_at_ops = 2400

let edit_loop a ~dir =
  let setup ~mirror = Edit_loop.setup ~same:a.same ~dir ~inputs ~seed:a.seed ~mirror in
  let first = Array.length Inputs.cycle in
  if not a.trace then begin
    (* The first set-up's daemon serves the timed phase; each further
       sample starts, sets up and stops a daemon of its own. *)
    let d, s0, f0 = setup ~mirror:false in
    let setups = ref [ s0 ] and warm_failed = ref f0 in
    let sample () =
      let d', s, f = setup ~mirror:false in
      Edit_loop.stop d';
      setups := s :: !setups;
      warm_failed := !warm_failed + f
    in
    let hwm = ref 0 in
    let on_op n = if n = rss_at_ops then hwm := Sut.proc_hwm_kb d.Edit_loop.pid in
    let cpu0 = Sut.proc_cpu_s d.Edit_loop.pid in
    let p =
      Loop.run ~cycle:first ~first ~seconds:a.seconds ~min_ops:rss_at_ops ~on_op
        ~between:(Loop.spread ~cycle:first ~seconds:a.seconds ~count:(daemon_setups - 1) sample)
        (Edit_loop.step d)
    in
    let cpu1 = Sut.proc_cpu_s d.Edit_loop.pid in
    if !hwm = 0 then hwm := Sut.proc_hwm_kb d.Edit_loop.pid;
    print_classes p;
    let same_as_cold = Edit_loop.warm_equals_cold ~same:a.same ~dir d in
    Edit_loop.stop d;
    let metrics = end_to_end ~phase:p ~cpu_s:(cpu1 -. cpu0) ~rss_kb:!hwm ~setups:(List.rev !setups) in
    {
      attempted = Loop.ops p + (List.length !setups * first) + 1;
      failed = p.Loop.failed + !warm_failed + if same_as_cold then 0 else 1;
      metrics;
    }
  end
  else begin
    let d, _, wf1 = setup ~mirror:false in
    let u = Loop.run ~cycle:first ~first ~seconds:(a.seconds /. 2.0) ~min_ops:first (Edit_loop.step d) in
    Edit_loop.stop d;
    let d, _, wf2 = setup ~mirror:true in
    Trace.reset ();
    Layers.reset ();
    Trace.enabled := true;
    let t =
      Loop.run ~cycle:first ~first ~seconds:(a.seconds /. 2.0) ~min_ops:(2 * first)
        ~between:(fun ~elapsed:_ i -> Edit_loop.replay d i)
        (Edit_loop.step d)
    in
    Trace.enabled := false;
    let same_as_cold = Edit_loop.warm_equals_cold ~same:a.same ~dir d in
    Edit_loop.stop d;
    let attempted = Loop.ops u + Loop.ops t + (2 * first) + 1 in
    let failed = u.Loop.failed + t.Loop.failed + wf1 + wf2 + if same_as_cold then 0 else 1 in
    let overhead_ms =
      Loop.host_factor t *. ms (Stat.median (List.map (fun (l, s) -> l -. s) (Loop.residuals ())))
    in
    let metrics =
      traced_metrics ~workload:a.workload ~traced:t ~untraced_ops_s:(Loop.ops_per_s u)
        ~floor_s:0.0 ~failed ~attempted [ ("serve.overhead.ms", overhead_ms) ]
    in
    { attempted; failed; metrics }
  end

(* ---------- main ---------- *)

let number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

(* The generated inputs behind the measured slow paths, for the CLI. *)
let emit ~seed dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let file name text =
    let path = Filename.concat dir name in
    Inputs.write path text;
    path
  in
  let rel = file "rails_reliability.csv" (Inputs.rails_reliability ~seed) in
  let rails n = file (Printf.sprintf "rails%d.bd" n) (Inputs.rails_design ~seed ~rails:n) in
  let r6 = rails 6 and r8 = rails 8 and r24 = rails 24 and r32 = rails 32 in
  let vote = Cli.vote24 ~seed and sp = Cli.sp12 ~seed in
  let v = file "vote24.xml" vote.Inputs.xml and s = file "sp12.xml" sp.Inputs.xml in
  Printf.printf "SAME_JOBS=1 same fmea %s -r %s -e DC1    # 24 rails, 122 unknowns, dense\n" r24 rel;
  Printf.printf "SAME_JOBS=1 same fmea %s -r %s -e DC1    # 32 rails, 162 unknowns, sparse\n" r32 rel;
  Printf.printf "SAME_JOBS=1 same fta %s -r %s [--engine bdd]   # MOCUS-first auto vs BDD\n" r6 rel;
  Printf.printf "SAME_JOBS=1 same fta %s -r %s [--engine bdd]\n" r8 rel;
  List.iter
    (fun (path, trials, (t : Inputs.tree)) ->
      Printf.printf "SAME_JOBS=1 same assess %s --trials %d --mission-hours %g   # exact %.17g\n" path
        trials t.Inputs.mission_hours t.Inputs.exact)
    [ (v, Cli.vote24_trials, vote); (s, Cli.sp12_trials, sp) ]

let () =
  let a = parse_args () in
  Option.iter
    (fun dir ->
      emit ~seed:a.seed dir;
      exit 0)
    a.emit;
  (* a run ends within 165 s whatever the program's speed *)
  Loop.set_deadline 165.0;
  if not (Sys.file_exists work) then Sys.mkdir work 0o755;
  let dir = Filename.concat work ("work-" ^ a.workload) in
  rm_rf dir;
  Sys.mkdir dir 0o755;
  let run =
    match a.workload with
    | "edit-loop" -> edit_loop
    | "cold-analysis" -> cli_workload Cli.cold_analysis
    | "fault-tree" -> cli_workload Cli.fault_tree
    | w ->
        Printf.eprintf "unknown workload %S\n" w;
        exit 2
  in
  Printf.printf "perfbench %s seed %d seconds %g trace %b (SAME_JOBS=1)\n%!" a.workload a.seed a.seconds
    a.trace;
  let o = run a ~dir in
  Sut.kill_all ();
  rm_rf dir;
  List.iter (fun (n, v, u) -> Printf.printf "  %-34s %16.6f %s\n" n v u) o.metrics;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (o.failed = 0) o.attempted o.failed
    (String.concat ", "
       (List.map
          (fun (n, v, u) -> Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" n (number v) u)
          o.metrics))
