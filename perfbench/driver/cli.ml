(* The CLI workloads (cold-analysis, fault-tree): every op is a fresh `same` process with no
   --cache, one at a time, in a fixed cyclic order.  Each op carries its
   own output check and, for the traced run, an in-process replay of the
   same public library calls the CLI path makes. *)

type op = {
  label : string;
  argv : int -> string array;  (** arguments after the binary, by op index *)
  outputs : string list;
      (** files the op writes, removed before each run so that a stale one
          cannot pass the check *)
  check : stdout:string -> (unit, string) result;
  replay : int -> unit;  (** in-process stages, by op index *)
}

(* ---------- shared replay stages ---------- *)

let parse_diagram text = Trace.stage "blockdiag.parse" (fun () -> Blockdiag.Text_format.parse text)

let parse_reliability text =
  Trace.stage "reliability.parse" (fun () ->
      Reliability.Reliability_model.of_spreadsheet
        (Modelio.Spreadsheet.of_csv ~name:"reliability" (Modelio.Csv.parse text)))

let to_netlist diagram =
  Trace.stage "blockdiag.to_netlist" (fun () -> Blockdiag.To_netlist.convert diagram)

(* Dc.prepare + factorise on the golden netlist.  A probe: the injection
   stage's own prepare repeats this work. *)
let dc_factorise netlist =
  Trace.probe "circuit.dc.factorise" (fun () ->
      let p = Circuit.Dc.prepare netlist in
      ignore (Circuit.Dc.factorise p);
      Layers.note_dc ~unknowns:(Circuit.Dc.size p)
        ~dense:(Circuit.Dc.backend_used p = `Dense))

(* What Decisive.Api.analyse does on the injection route without an
   engine, stage by stage. *)
let injection ~options diagram reliability =
  let conversion = to_netlist diagram in
  let netlist = conversion.Blockdiag.To_netlist.netlist in
  dc_factorise netlist;
  let prepared =
    Trace.stage "fmea.prepare" (fun () -> Fmea.Injection_fmea.prepare ~options netlist)
  in
  let solved = ref 0 and rank_updates = ref 0 in
  let on_solved = function
    | `Rank_update _ ->
        incr solved;
        incr rank_updates
    | `Reused | `Refactor -> incr solved
  in
  let table =
    Trace.stage "fmea.injection" (fun () ->
        Fmea.Injection_fmea.analyse ~options
          ~element_types:conversion.Blockdiag.To_netlist.block_types ~prepared ~on_solved
          netlist reliability)
  in
  Layers.note_injection ~rows:(List.length table.Fmea.Table.rows) ~solved:!solved
    ~rank_updates:!rank_updates;
  table

let render_table table =
  Format.asprintf "%a@.%a@." Fmea.Table.pp table Fmea.Metrics.pp_breakdown
    (Fmea.Metrics.compute table)

(* ---------- checks ---------- *)

let ( let* ) = Result.bind
let fail fmt = Printf.ksprintf (fun m -> Error m) fmt

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let csv_rows path =
  match Modelio.Csv.parse (Inputs.read path) with
  | _header :: rows -> List.length rows
  | [] -> 0

(* ---------- cold-analysis ---------- *)

let fmea_rails ~dir ~seed ~rails =
  let bd = Filename.concat dir (Printf.sprintf "rails%d.bd" rails) in
  let rel = Filename.concat dir "rails_reliability.csv" in
  let out = Filename.concat dir (Printf.sprintf "rails%d_fmea.csv" rails) in
  let design = Inputs.rails_design ~seed ~rails in
  let reliability = Inputs.rails_reliability ~seed in
  Inputs.write bd design;
  Inputs.write rel reliability;
  let options = { Fmea.Injection_fmea.default_options with exclude = [ "DC1" ] } in
  {
    label = Printf.sprintf "fmea.rails%d" rails;
    argv = (fun _ -> [| "fmea"; bd; "-r"; rel; "-e"; "DC1"; "-o"; out |]);
    outputs = [ out ];
    check =
      (fun ~stdout:_ ->
        let rows = csv_rows out in
        if rows = Inputs.rails_fmea_rows rails then Ok ()
        else fail "rails%d: %d FMEA rows, expected %d" rails rows (Inputs.rails_fmea_rows rails));
    replay =
      (fun _ ->
        let diagram = parse_diagram design in
        let reliability = parse_reliability reliability in
        let table = injection ~options diagram reliability in
        Trace.stage "fmea.render" (fun () ->
            ignore (render_table table);
            Modelio.Csv.write_file (out ^ ".replay")
              (Fmea.Table.to_csv ~repeat_component_cells:true table)));
  }

(* System B is analysed with the supplies excluded and the three safety
   sensors monitored, on the CLI, in the daemon session and in replays. *)
let system_b_exclude = [ "DC1"; "BAT1" ]
let system_b_monitored = [ "CS1"; "CS2"; "VS1" ]

let system_b_flags =
  List.concat_map (fun x -> [ "-e"; x ]) system_b_exclude
  @ List.concat_map (fun x -> [ "-m"; x ]) system_b_monitored

let system_b_params =
  [ ("exclude", String.concat "," system_b_exclude); ("monitored", String.concat "," system_b_monitored) ]

let system_b_options =
  {
    Fmea.Injection_fmea.default_options with
    exclude = system_b_exclude;
    monitored_sensors = Some system_b_monitored;
  }

let fmeda_system_b ~inputs ~dir =
  let bd = Filename.concat dir "system_b.bd" in
  let rel = Filename.concat dir "system_b_reliability.csv" in
  let design = Inputs.read (Filename.concat inputs "system_b.bd") in
  let reliability = Inputs.read (Filename.concat inputs "system_b_reliability.csv") in
  Inputs.write bd design;
  Inputs.write rel reliability;
  let target = Ssam.Requirement.ASIL_B in
  {
    label = "fmeda.system_b";
    argv =
      (fun _ ->
        Array.of_list
          ([ "fmeda"; bd; "-r"; rel; "-t"; "ASIL-B" ] @ system_b_flags));
    outputs = [];
    check =
      (fun ~stdout ->
        (* the paper-anchored System B verdict *)
        if contains ~sub:"SPFM 90.64%" stdout && contains ~sub:"meets ASIL-B" stdout then Ok ()
        else fail "System B fmeda: verdict is not \"SPFM 90.64%% ... meets ASIL-B\"");
    replay =
      (fun _ ->
        let diagram = parse_diagram design in
        let reliability = parse_reliability reliability in
        let table = injection ~options:system_b_options diagram reliability in
        let conversion = to_netlist diagram in
        let sm = Reliability.Sm_model.extended_catalogue in
        let component_types = conversion.Blockdiag.To_netlist.block_types in
        let t0 = Sut.now () in
        let chosen, _front =
          Trace.stage "optimize.search" (fun () ->
              Optimize.Search.optimise ~component_types ~target table sm)
        in
        Layers.note_search ~seconds:(Sut.now () -. t0)
          ~candidates:
            (List.fold_left
               (fun acc s -> acc *. float_of_int (1 + List.length s.Optimize.Search.slot_options))
               1.0
               (Optimize.Search.slots ~component_types table sm));
        Trace.stage "fmea.render" (fun () ->
            let refined =
              match chosen with
              | Some c -> Fmea.Fmeda.apply table c.Optimize.Search.deployments
              | None -> table
            in
            ignore (render_table refined);
            ignore
              (Format.asprintf "%a@."
                 (fun ppf () ->
                   Fmea.Asil.pp_verdict ppf ~target ~spfm:(Fmea.Metrics.spfm refined))
                 ())));
  }

(* ---------- fault trees ---------- *)

let fta_rails ~dir ~seed ~rails =
  let bd = Filename.concat dir (Printf.sprintf "fta_rails%d.bd" rails) in
  let rel = Filename.concat dir "fta_reliability.csv" in
  let design = Inputs.rails_design ~seed ~rails in
  let reliability = Inputs.rails_reliability ~seed in
  Inputs.write bd design;
  Inputs.write rel reliability;
  let expected = Inputs.rails_cut_sets rails in
  {
    label = Printf.sprintf "fta.rails%d" rails;
    argv = (fun _ -> [| "fta"; bd; "-r"; rel |]);
    outputs = [];
    check =
      (fun ~stdout ->
        let header = Printf.sprintf "minimal cut sets (%d):" expected in
        if contains ~sub:header stdout then Ok ()
        else fail "rails%d fta: no \"%s\" line" rails header);
    replay =
      (fun _ ->
        let diagram = parse_diagram design in
        let reliability = parse_reliability reliability in
        let tree =
          Trace.stage "fta.lower" (fun () -> Fta.From_ssam.of_diagram ~reliability diagram)
        in
        let sets = Trace.stage "fta.cut_sets" (fun () -> Fta.Cut_sets.minimal ~engine:`Auto tree) in
        Layers.note_cut_sets (List.length sets);
        let probs =
          Trace.stage "fta.quant" (fun () ->
              let probs = Fta.Quant.event_probabilities tree in
              ignore (Fta.Quant.top_probability_exact tree probs);
              ignore (Fta.Quant.rare_event_bound sets probs);
              ignore (Fta.Quant.birnbaum tree probs);
              ignore (Fta.Quant.fussell_vesely tree probs);
              probs)
        in
        Trace.stage "fta.render" (fun () ->
            let buf = Buffer.create 65536 in
            Buffer.add_string buf (Format.asprintf "%a" Fta.Fault_tree.pp_ascii tree);
            List.iter
              (fun s -> Printf.bprintf buf "  {%s}\n" (String.concat ", " s))
              sets);
        (* the BDD kernel on its own: build, ZBDD extraction and
           quantification *)
        let bdd = Trace.probe "fta.bdd.build" (fun () -> Fta.Bdd.build tree) in
        Layers.note_bdd_nodes (Fta.Bdd.node_count bdd);
        ignore (Trace.probe "fta.bdd.cut_sets" (fun () -> Fta.Bdd.minimal_cut_sets bdd));
        let p id = Option.value ~default:0.0 (List.assoc_opt id probs) in
        ignore (Trace.probe "fta.bdd.probability" (fun () -> Fta.Bdd.probability bdd p)));
  }

(* Per-op seed for Monte Carlo, from the workload seed and op index. *)
let op_seed ~seed i = (seed * 7919) + i

let assess_check ?exact ~name ~stdout () =
  let json = Modelio.Json.parse stdout in
  let num k = Modelio.Json.(Option.bind (member k json) to_float) in
  match (num "top_probability", num "ci_halfwidth", num "exact") with
  | Some est, Some hw, Some bdd ->
      (* 4 half-widths of the 99 % interval: a correct program fails this
         far less than once in a million ops, unlike --check *)
      let* () =
        if Float.abs (est -. bdd) <= 4.0 *. hw then Ok ()
        else fail "%s: estimate %g is %g from exact %g (half-width %g)" name est (est -. bdd) bdd hw
      in
      (match exact with
      | Some closed when Float.abs (bdd -. closed) > 1e-9 *. closed ->
          fail "%s: exact %.17g differs from the closed form %.17g" name bdd closed
      | _ -> Ok ())
  | _ -> fail "%s: assess JSON lacks top_probability/ci_halfwidth/exact" name

let mc_config ~mission_hours ~trials ~seed =
  {
    Assess.Mc.default with
    Assess.Mc.mission_hours;
    trials = Some trials;
    seed;
  }

let assess_mc ~tag ~mission_hours ~trials ~seed tree =
  let program = Trace.probe "assess.compile" (fun () -> Assess.Program.compile tree) in
  Layers.note_instructions (Assess.Program.n_instrs program);
  let t0 = Sut.now () in
  let report =
    Trace.stage "assess.mc" (fun () -> Assess.Mc.run ~jobs:1 (mc_config ~mission_hours ~trials ~seed) tree)
  in
  Layers.note_trials ~tag ~trials:report.Assess.Mc.trials ~seconds:(Sut.now () -. t0)

let assess_tree ~dir ~seed ~tag ~trials (t : Inputs.tree) =
  let path = Filename.concat dir (tag ^ ".xml") in
  Inputs.write path t.Inputs.xml;
  let mission = Printf.sprintf "%.17g" t.Inputs.mission_hours in
  {
    label = "assess." ^ tag;
    argv =
      (fun i ->
        [| "assess"; path; "--trials"; string_of_int trials; "--mission-hours"; mission;
           "--seed"; string_of_int (op_seed ~seed i); "-o"; "json" |]);
    outputs = [];
    check = (fun ~stdout -> assess_check ~exact:t.Inputs.exact ~name:tag ~stdout ());
    replay =
      (fun i ->
        let tree = Trace.stage "fta.open_psa" (fun () -> Fta.Export.parse_open_psa t.Inputs.xml) in
        assess_mc ~tag ~mission_hours:t.Inputs.mission_hours ~trials ~seed:(op_seed ~seed i) tree);
  }

let assess_psu ~inputs ~dir ~seed ~trials =
  let design = Inputs.read (Filename.concat inputs "psu.bd") in
  let path = Filename.concat dir "psu.bd" in
  Inputs.write path design;
  let mission_hours = Assess.Mc.default.Assess.Mc.mission_hours in
  {
    label = "assess.psu";
    argv =
      (fun i ->
        [| "assess"; path; "--trials"; string_of_int trials; "--seed";
           string_of_int (op_seed ~seed i); "-o"; "json" |]);
    outputs = [];
    check = (fun ~stdout -> assess_check ~name:"psu" ~stdout ());
    replay =
      (fun i ->
        let diagram = parse_diagram design in
        let reliability = Reliability.Reliability_model.table_ii in
        let tree =
          Trace.stage "fta.lower" (fun () -> Fta.From_ssam.of_diagram ~reliability diagram)
        in
        assess_mc ~tag:"psu" ~mission_hours ~trials ~seed:(op_seed ~seed i) tree);
  }

(* Trees and fixed trial budgets, each assess op about 100 ms on a
   2 GHz core: the mission times put the top event near 0.24 (vote) and
   4e-3 (series-parallel), so the direct sampler sees hits. *)
let vote24 ~seed = Inputs.vote ~seed ~n:24 ~mission_hours:4.0e5
let vote24_trials = 600_000
let sp12 ~seed = Inputs.series_parallel ~seed ~k:12 ~mission_hours:5.0e6
let sp12_trials = 300_000
let psu_trials = 4_000_000

(* The cold-analysis cycle: the 8-rail (42 unknowns, dense backend) and
   32-rail (162 unknowns, sparse) fmea, then System B's fmeda (~0.6 s,
   mostly the safety-mechanism search), the heaviest class at a third of
   the ops, so p90 falls inside it. *)
let cold_analysis ~inputs ~dir ~seed =
  [|
    fmea_rails ~dir ~seed ~rails:8;
    fmea_rails ~dir ~seed ~rails:32;
    fmeda_system_b ~inputs ~dir;
  |]

(* The fault-tree cycle: fta with the default engine on the 6-rail design
   (4,097 minimal cut sets, MOCUS first), assess on the two Open-PSA trees
   and on the PSU diagram.  fta runs twice: with one op of each class the
   classes split the latencies at quarters and p50 would sit exactly on
   the boundary between two assess classes, the largest sample of the
   cheaper ones; with fta at two fifths, p50 falls inside the sp12 class
   and p90 inside fta, the heaviest. *)
let fault_tree ~inputs ~dir ~seed =
  let fta = fta_rails ~dir ~seed ~rails:6 in
  [|
    fta;
    assess_tree ~dir ~seed ~tag:"vote24" ~trials:vote24_trials (vote24 ~seed);
    assess_tree ~dir ~seed ~tag:"sp12" ~trials:sp12_trials (sp12 ~seed);
    fta;
    assess_psu ~inputs ~dir ~seed ~trials:psu_trials;
  |]
