(* Per-layer counters read where the work happens, during the traced
   replay, and the fixed list of per-layer metrics every traced run
   reports.  A layer a workload bypasses reports 0 calls (and 0 for its
   other figures): that is a measurement, not a gap. *)

type acc = {
  mutable dc_unknowns : int;
  mutable dc_factorisations : int;
  mutable dc_dense : int;
  mutable injection_rows : int;
  mutable solved : int;
  mutable rank_updates : int;
  mutable search_s : float;
  mutable candidates : float;
  mutable cut_sets : int;
  mutable bdd_nodes : int;
  mutable instructions : int list;
  mutable trials : (string * (int * float)) list;  (** tag -> trials, seconds *)
  mutable rows_reused : int;
  mutable rows_classified : int;
  mutable golden_solves : int;
}

let fresh () =
  {
    dc_unknowns = 0;
    dc_factorisations = 0;
    dc_dense = 0;
    injection_rows = 0;
    solved = 0;
    rank_updates = 0;
    search_s = 0.0;
    candidates = 0.0;
    cut_sets = 0;
    bdd_nodes = 0;
    instructions = [];
    trials = [];
    rows_reused = 0;
    rows_classified = 0;
    golden_solves = 0;
  }

let acc = ref (fresh ())
let reset () = acc := fresh ()
let on f = if !Trace.enabled then f !acc

let note_dc ~unknowns ~dense =
  on (fun a ->
      a.dc_unknowns <- Int.max a.dc_unknowns unknowns;
      a.dc_factorisations <- a.dc_factorisations + 1;
      if dense then a.dc_dense <- a.dc_dense + 1)

let note_injection ~rows ~solved ~rank_updates =
  on (fun a ->
      a.injection_rows <- a.injection_rows + rows;
      a.solved <- a.solved + solved;
      a.rank_updates <- a.rank_updates + rank_updates)

let note_search ~seconds ~candidates =
  on (fun a ->
      a.search_s <- a.search_s +. seconds;
      a.candidates <- a.candidates +. candidates)

let note_cut_sets n = on (fun a -> a.cut_sets <- Int.max a.cut_sets n)
let note_bdd_nodes n = on (fun a -> a.bdd_nodes <- Int.max a.bdd_nodes n)
let note_instructions n = on (fun a -> a.instructions <- n :: a.instructions)

let note_trials ~tag ~trials ~seconds =
  on (fun a ->
      let t, s = Option.value ~default:(0, 0.0) (List.assoc_opt tag a.trials) in
      a.trials <- (tag, (t + trials, s +. seconds)) :: List.remove_assoc tag a.trials)

let note_engine ~reused ~classified ~golden =
  on (fun a ->
      a.rows_reused <- a.rows_reused + reused;
      a.rows_classified <- a.rows_classified + classified;
      a.golden_solves <- a.golden_solves + golden)

(* ---------- the metric list ---------- *)

(* Library calls timed in-process: each reports median self ms per call,
   calls per op and kwords allocated per call. *)
let in_process =
  [
    "modelio.json"; "reliability.parse"; "engine.injection_fmea"; "blockdiag.parse";
    "blockdiag.to_netlist"; "circuit.dc.factorise"; "fmea.prepare"; "fmea.injection";
    "fmea.render"; "optimize.search"; "fta.lower"; "fta.open_psa"; "fta.cut_sets"; "fta.quant";
    "fta.render"; "fta.bdd.build"; "fta.bdd.cut_sets"; "fta.bdd.probability"; "assess.compile";
    "assess.mc";
  ]

(* Daemon round trips per op class: median ms per call and calls per op
   (client-side allocation says nothing about the daemon, so no kwords). *)
let rpc = [ "serve.rpc.edit_rel"; "serve.rpc.edit_diagram"; "serve.rpc.replay" ]

let derived =
  [
    ("process.start.ms", "ms");
    ("serve.overhead.ms", "ms");
    ("engine.reuse_ratio", "ratio");
    ("engine.golden_solves", "solves/op");
    ("circuit.dc.unknowns", "count");
    ("circuit.dc.dense_share", "ratio");
    ("fmea.injection.us_per_fault", "us");
    ("fmea.rank_update_ratio", "ratio");
    ("optimize.ns_per_candidate", "ns");
    ("fta.cut_sets.count", "count");
    ("fta.bdd.nodes", "count");
    ("assess.instructions", "count");
    ("assess.mtrials_per_s.vote24", "Mtrials/s");
    ("assess.mtrials_per_s.sp12", "Mtrials/s");
    ("assess.mtrials_per_s.psu", "Mtrials/s");
    ("trace.coverage", "ratio");
    ("trace.overhead", "ratio");
    ("error_rate", "ratio");
  ]

(* (name, unit) of every per-layer metric, in report order; BENCHMARK.json
   lists the same names with the direction that counts as better. *)
let catalogue =
  List.concat_map
    (fun n ->
      [ (n ^ ".ms", "ms"); (n ^ ".calls", "calls/op"); (n ^ ".kwords", "kwords") ])
    in_process
  @ List.concat_map (fun n -> [ (n ^ ".ms", "ms"); (n ^ ".calls", "calls/op") ]) rpc
  @ derived

let unit_of name =
  match List.assoc_opt name catalogue with
  | Some u -> u
  | None -> invalid_arg ("unknown per-layer metric " ^ name)

let ratio a b = if b > 0.0 then a /. b else 0.0

(* Per-layer figures of the traced phase. [ops] is the number of traced
   ops, [extra] the workload-level figures (coverage, overhead, ...).
   [host] is the traced phase's host factor (Loop.host_factor): times are
   reported in reference seconds, like the end-to-end ones. *)
let report ~ops ~host ~extra =
  let a = !acc in
  let tbl = Trace.layers () in
  let per_op n = ratio (float_of_int n) (float_of_int ops) in
  let span_metrics name ~kwords =
    match Hashtbl.find_opt tbl name with
    | None -> [ (name ^ ".ms", 0.0); (name ^ ".calls", 0.0) ] @ if kwords then [ (name ^ ".kwords", 0.0) ] else []
    | Some l ->
        [ (name ^ ".ms", host *. Stat.median l.Trace.self_ms); (name ^ ".calls", per_op l.Trace.calls) ]
        @ if kwords then [ (name ^ ".kwords", Stat.mean l.Trace.kwords) ] else []
  in
  let total name =
    match Hashtbl.find_opt tbl name with Some l -> Stat.sum l.Trace.self_ms | None -> 0.0
  in
  let mtrials tag =
    match List.assoc_opt tag a.trials with
    | Some (t, s) -> ratio (float_of_int t) (host *. s) /. 1e6
    | None -> 0.0
  in
  List.concat_map (span_metrics ~kwords:true) in_process
  @ List.concat_map (span_metrics ~kwords:false) rpc
  @ [
      ("engine.reuse_ratio", ratio (float_of_int a.rows_reused) (float_of_int (a.rows_reused + a.rows_classified)));
      ("engine.golden_solves", per_op a.golden_solves);
      ("circuit.dc.unknowns", float_of_int a.dc_unknowns);
      ("circuit.dc.dense_share", ratio (float_of_int a.dc_dense) (float_of_int a.dc_factorisations));
      ("fmea.injection.us_per_fault", host *. 1000.0 *. ratio (total "fmea.injection") (float_of_int a.injection_rows));
      ("fmea.rank_update_ratio", ratio (float_of_int a.rank_updates) (float_of_int a.solved));
      ("optimize.ns_per_candidate", host *. 1e9 *. ratio a.search_s a.candidates);
      ("fta.cut_sets.count", float_of_int a.cut_sets);
      ("fta.bdd.nodes", float_of_int a.bdd_nodes);
      ( "assess.instructions",
        ratio (float_of_int (List.fold_left ( + ) 0 a.instructions)) (float_of_int (List.length a.instructions)) );
      ("assess.mtrials_per_s.vote24", mtrials "vote24");
      ("assess.mtrials_per_s.sp12", mtrials "sp12");
      ("assess.mtrials_per_s.psu", mtrials "psu");
    ]
  @ extra

(* Human-readable table of the traced phase: self ms per call, calls and
   kwords per op, and each layer's share of the stage time. *)
let print_table ~workload ~ops =
  let tbl = Trace.layers () in
  let rows =
    Hashtbl.fold (fun name l acc -> (name, l) :: acc) tbl []
    |> List.sort (fun (_, a) (_, b) -> Float.compare (Stat.sum b.Trace.self_ms) (Stat.sum a.Trace.self_ms))
  in
  Printf.printf "\nper-layer self time, workload %s (%d traced ops)\n" workload ops;
  Printf.printf "  %-26s %-6s %12s %12s %10s %12s\n" "layer" "kind" "ms/call p50" "ms/op" "calls/op"
    "kwords/call";
  List.iter
    (fun (name, l) ->
      let f = float_of_int ops in
      Printf.printf "  %-26s %-6s %12.4f %12.4f %10.3f %12.2f\n" name (Trace.kind_name l.Trace.layer_kind)
        (Stat.median l.Trace.self_ms)
        (Stat.sum l.Trace.self_ms /. f)
        (float_of_int l.Trace.calls /. f)
        (Stat.mean l.Trace.kwords))
    rows
