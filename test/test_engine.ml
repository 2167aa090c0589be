(* The incremental re-analysis engine: fingerprints, the artefact cache,
   and the pipeline's central promise — warm results are bit-identical to
   cold ones, they just cost fewer solves. *)

let fp_hex = Engine.Fingerprint.to_hex

(* ---------- fingerprints ---------- *)

(* Fresh structurally-equal values each call, so equal fingerprints prove
   content addressing rather than physical sharing. *)
let mk_diagram ?(volts = 5.0) ?(henries = 1e-3) () =
  let open Blockdiag.Diagram in
  diagram ~name:"fp_psu"
    [
      block ~id:"DC1" ~block_type:"vsource"
        ~parameters:[ ("volts", P_num volts) ]
        ();
      block ~id:"D1" ~block_type:"diode" ();
      block ~id:"L1" ~block_type:"inductor"
        ~parameters:[ ("henries", P_num henries) ]
        ();
      block ~id:"CS1" ~block_type:"current_sensor" ();
      block ~id:"MC1" ~block_type:"microcontroller"
        ~parameters:[ ("ohms", P_num 100.0) ]
        ();
      block ~id:"GND1" ~block_type:"ground"
        ~ports:[ { port_name = "a"; port_kind = Conserving } ]
        ();
    ]
    ~connections:
      [
        connect ("DC1", "a") ("D1", "a");
        connect ("D1", "b") ("L1", "a");
        connect ("L1", "b") ("CS1", "a");
        connect ("CS1", "b") ("MC1", "a");
        connect ("MC1", "b") ("GND1", "a");
        connect ("DC1", "b") ("GND1", "a");
      ]

let test_fingerprint_diagram () =
  Alcotest.(check string)
    "structurally equal diagrams share a fingerprint"
    (fp_hex (Engine.Fingerprint.diagram (mk_diagram ())))
    (fp_hex (Engine.Fingerprint.diagram (mk_diagram ())));
  Alcotest.(check bool)
    "a parameter edit moves the fingerprint" false
    (Engine.Fingerprint.equal
       (Engine.Fingerprint.diagram (mk_diagram ()))
       (Engine.Fingerprint.diagram (mk_diagram ~volts:5.1 ())))

let test_fingerprint_reliability_order_insensitive () =
  let entries = Reliability.Reliability_model.entries Reliability.Reliability_model.table_ii in
  let forward = Reliability.Reliability_model.of_entries entries in
  let backward = Reliability.Reliability_model.of_entries (List.rev entries) in
  Alcotest.(check string)
    "entry storage order does not matter"
    (fp_hex (Engine.Fingerprint.reliability_model forward))
    (fp_hex (Engine.Fingerprint.reliability_model backward));
  let bumped =
    match entries with
    | e :: rest ->
        Reliability.Reliability_model.of_entries
          ({ e with Reliability.Reliability_model.fit = e.Reliability.Reliability_model.fit +. 1.0 } :: rest)
    | [] -> assert false
  in
  Alcotest.(check bool)
    "a FIT edit moves the fingerprint" false
    (Engine.Fingerprint.equal
       (Engine.Fingerprint.reliability_model forward)
       (Engine.Fingerprint.reliability_model bumped))

let test_fingerprint_subtree_locality () =
  (* Editing one child changes the parent's Merkle root but not the
     sibling's subtree hash. *)
  let child ~id ~fit =
    Ssam.Architecture.component ~fit ~meta:(Ssam.Base.meta ~name:id id) ()
  in
  let parent a_fit =
    Ssam.Architecture.component
      ~children:[ child ~id:"a" ~fit:a_fit; child ~id:"b" ~fit:2.0 ]
      ~meta:(Ssam.Base.meta ~name:"p" "p") ()
  in
  let p1 = parent 1.0 and p2 = parent 9.0 in
  Alcotest.(check bool)
    "parent fingerprint moves" false
    (Engine.Fingerprint.equal
       (Engine.Fingerprint.ssam_component p1)
       (Engine.Fingerprint.ssam_component p2));
  let sibling p =
    List.nth p.Ssam.Architecture.children 1
  in
  Alcotest.(check string)
    "sibling subtree hash is untouched"
    (fp_hex (Engine.Fingerprint.ssam_component (sibling p1)))
    (fp_hex (Engine.Fingerprint.ssam_component (sibling p2)))

(* A load edit far below [show]'s 12 significant digits is still an
   edit: the fingerprints compare floats bit for bit. *)
let load_diagram ohms =
  let open Blockdiag.Diagram in
  diagram ~name:"fp_load"
    [
      block ~id:"DC1" ~block_type:"vsource" ~parameters:[ ("volts", P_num 5.0) ] ();
      block ~id:"RL1" ~block_type:"load" ~parameters:[ ("ohms", P_num ohms) ] ();
      block ~id:"GND1" ~block_type:"ground"
        ~ports:[ { port_name = "a"; port_kind = Conserving } ]
        ();
    ]
    ~connections:
      [
        connect ("DC1", "a") ("RL1", "a");
        connect ("RL1", "b") ("GND1", "a");
        connect ("DC1", "b") ("GND1", "a");
      ]

let test_fingerprint_diagram_floats_exact () =
  let d1 = load_diagram 48.0 and d2 = load_diagram 48.0000000000001 in
  let differ what a b =
    Alcotest.(check bool) what false (Engine.Fingerprint.equal a b)
  in
  differ "diagrams differ" (Engine.Fingerprint.diagram d1)
    (Engine.Fingerprint.diagram d2);
  let netlist d = (Blockdiag.To_netlist.convert d).Blockdiag.To_netlist.netlist in
  differ "netlists differ"
    (Engine.Fingerprint.netlist (netlist d1))
    (Engine.Fingerprint.netlist (netlist d2));
  differ "netlist structures differ"
    (Engine.Fingerprint.netlist_structure (netlist d1))
    (Engine.Fingerprint.netlist_structure (netlist d2))

let test_fingerprint_reliability_floats_exact () =
  let model fit =
    Reliability.Reliability_model.of_entries
      [
        {
          Reliability.Reliability_model.component_type = "load";
          fit;
          failure_modes = [];
        };
      ]
  in
  Alcotest.(check bool)
    "FITs 100.0 and 100.00000000001 differ" false
    (Engine.Fingerprint.equal
       (Engine.Fingerprint.reliability_model (model 100.0))
       (Engine.Fingerprint.reliability_model (model 100.00000000001)))

(* Fingerprints see structure, never physical sharing: two blocks on one
   [ports] list hash like two blocks on separate copies of it. *)
let test_fingerprint_sharing_independent () =
  let open Blockdiag.Diagram in
  let ports =
    [
      { port_name = "a"; port_kind = Conserving };
      { port_name = "b"; port_kind = Conserving };
    ]
  in
  let copy () = List.map (fun p -> { p with port_kind = p.port_kind }) ports in
  let mk p1 p2 =
    diagram ~name:"fp_shared"
      [
        block ~id:"R1" ~block_type:"resistor" ~ports:p1 ();
        block ~id:"R2" ~block_type:"resistor" ~ports:p2 ();
      ]
  in
  let separate = (copy (), copy ()) in
  Alcotest.(check bool)
    "the copies are physically distinct" false
    (List.hd (fst separate) == List.hd (snd separate));
  Alcotest.(check string)
    "shared and copied ports fingerprint equal"
    (fp_hex (Engine.Fingerprint.diagram (mk ports ports)))
    (fp_hex (Engine.Fingerprint.diagram (mk (fst separate) (snd separate))))

(* ---------- cache ---------- *)

let key_of s = Engine.Cache.key ~stage:"test" ~version:1 (Engine.Fingerprint.leaf s)

let test_cache_lru () =
  let c = Engine.Cache.create ~capacity:2 () in
  let k1 = key_of "one" and k2 = key_of "two" and k3 = key_of "three" in
  Engine.Cache.store c k1 "1";
  Engine.Cache.store c k2 "2";
  (* Touch k1 so k2 is the least recently used... *)
  Alcotest.(check bool) "k1 found" true (Engine.Cache.find c k1 <> None);
  Engine.Cache.store c k3 "3";
  Alcotest.(check int) "capacity held" 2 (Engine.Cache.memory_count c);
  Alcotest.(check bool) "k1 kept (recently used)" true (Engine.Cache.in_memory c k1);
  Alcotest.(check bool) "k2 evicted (LRU)" false (Engine.Cache.in_memory c k2);
  Alcotest.(check bool) "k3 kept (new)" true (Engine.Cache.in_memory c k3)

let with_temp_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "same-engine-test-%d" (Unix.getpid ()))
  in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm dir) (fun () -> f dir)

let test_cache_disk_roundtrip () =
  with_temp_dir (fun dir ->
      let k = key_of "persist" in
      let c1 = Engine.Cache.create ~dir () in
      Engine.Cache.store c1 k "the artefact";
      (* A fresh cache on the same directory sees the entry from disk. *)
      let c2 = Engine.Cache.create ~dir () in
      (match Engine.Cache.find c2 k with
      | Some (`Disk payload) ->
          Alcotest.(check string) "payload survives" "the artefact" payload
      | Some (`Memory _) -> Alcotest.fail "expected a disk hit"
      | None -> Alcotest.fail "expected a hit");
      (* ...and the disk hit was promoted into memory. *)
      Alcotest.(check bool) "promoted" true (Engine.Cache.in_memory c2 k))

(* The serve daemon hits one cache from many request threads at once;
   domains racing store/find/evict must neither crash nor break the
   capacity invariant, and a key that was just stored by the same domain
   must be readable (no lost updates within a domain). *)
let test_cache_concurrent_access () =
  let c = Engine.Cache.create ~capacity:16 () in
  let domains = 4 and per_domain = 200 in
  let errors = Atomic.make 0 in
  let worker d =
    for i = 0 to per_domain - 1 do
      (* Overlapping key ranges force eviction races: 32 hot keys over a
         16-slot cache. *)
      let k = key_of (Printf.sprintf "hot-%d" ((d + i) mod 32)) in
      let payload = Printf.sprintf "%d/%d" d i in
      Engine.Cache.store c k payload;
      (match Engine.Cache.find c k with
      | Some (`Memory p) | Some (`Disk p) ->
          (* Another domain may have overwritten it, but whatever is
             there must be a well-formed payload for this key. *)
          if not (String.contains p '/') then Atomic.incr errors
      | None ->
          (* Evicted between store and find under pressure — legal. *)
          ());
      ignore (Engine.Cache.memory_count c)
    done
  in
  let spawned = List.init domains (fun d -> Domain.spawn (fun () -> worker d)) in
  List.iter Domain.join spawned;
  Alcotest.(check int) "no torn payloads" 0 (Atomic.get errors);
  Alcotest.(check bool) "capacity invariant held" true
    (Engine.Cache.memory_count c <= 16)

let test_cache_corruption_recovers () =
  with_temp_dir (fun dir ->
      let computes = ref 0 in
      let run () =
        let p = Engine.Pipeline.create ~cache:(Engine.Cache.create ~dir ()) () in
        let v =
          Engine.Pipeline.memo p ~stage:"answer"
            ~key:(Engine.Fingerprint.leaf "life")
            (fun () -> incr computes; 42)
        in
        (p, v)
      in
      let p1, v1 = run () in
      Alcotest.(check int) "computed once" 1 !computes;
      Alcotest.(check int) "value" 42 v1;
      let file =
        match
          Engine.Cache.disk_file (Engine.Pipeline.cache p1)
            (Engine.Cache.key ~stage:"answer" ~version:1
               (Engine.Fingerprint.leaf "life"))
        with
        | Some f -> f
        | None -> Alcotest.fail "disk-backed cache must name its file"
      in
      Alcotest.(check bool) "entry written" true (Sys.file_exists file);
      (* Mangle the payload: a fresh pipeline must recompute, not crash or
         return garbage. *)
      let oc = open_out_gen [ Open_wronly; Open_trunc ] 0o644 file in
      output_string oc "same-cache/1\ndeadbeef\ncorrupt";
      close_out oc;
      let _, v2 = run () in
      Alcotest.(check int) "recomputed after corruption" 2 !computes;
      Alcotest.(check int) "same value" 42 v2;
      (* Truncate to nothing: again a recompute. *)
      let oc = open_out_gen [ Open_wronly; Open_trunc ] 0o644 file in
      close_out oc;
      let _, v3 = run () in
      Alcotest.(check int) "recomputed after truncation" 3 !computes;
      Alcotest.(check int) "same value again" 42 v3;
      (* Un-mangled entries do hit. *)
      let _, v4 = run () in
      Alcotest.(check int) "clean entry is reused" 3 !computes;
      Alcotest.(check int) "hit value" 42 v4)

(* ---------- pipeline: warm == cold ---------- *)

let default_reliability = Reliability.Reliability_model.table_ii

let analyse_cold ?(options = Fmea.Injection_fmea.default_options) diagram
    reliability =
  let conv = Blockdiag.To_netlist.convert diagram in
  Fmea.Injection_fmea.analyse ~options
    ~element_types:conv.Blockdiag.To_netlist.block_types
    conv.Blockdiag.To_netlist.netlist reliability

let table = Alcotest.testable Fmea.Table.pp Fmea.Table.equal

let test_warm_equals_cold_basic () =
  let diagram = mk_diagram () in
  let cold = analyse_cold diagram default_reliability in
  let e = Engine.Pipeline.create () in
  let warm1 =
    Engine.Pipeline.injection_fmea e
      ~options:Fmea.Injection_fmea.default_options diagram default_reliability
  in
  Alcotest.check table "first engine run equals cold" cold warm1;
  let warm2 =
    Engine.Pipeline.injection_fmea e
      ~options:Fmea.Injection_fmea.default_options diagram default_reliability
  in
  Alcotest.check table "cache hit equals cold" cold warm2;
  let s = Engine.Pipeline.snapshot e in
  Alcotest.(check bool) "second run was a hit" true (Engine.Stats.hits s >= 1)

(* The property at the heart of the engine: after a random single edit,
   re-analysing with [previous] supplied is bit-identical to a cold
   analysis of the edited inputs — whatever the edit and the job count. *)
let prop_warm_equals_cold =
  let open QCheck in
  let gen =
    Gen.(
      let* volts = float_range 3.0 12.0 in
      let* henries = float_range 1e-4 1e-2 in
      let* edit =
        oneof
          [
            (* Reliability edit: a component type's FIT worsens — the
               row-reuse path. *)
            (let* delta = float_range 1.0 50.0 in
             let* ty = oneofl [ "inductor"; "diode"; "microcontroller" ] in
             return (`Fit (ty, delta)));
            (* Electrical edit: the golden run moves — no reuse at all. *)
            (let* v2 = float_range 3.0 12.0 in
             return (`Volts v2));
            (let* h2 = float_range 1e-4 1e-2 in
             return (`Henries h2));
          ]
      in
      let* jobs = oneofl [ 1; 4 ] in
      return (volts, henries, edit, jobs))
  in
  Test.make ~count:25 ~name:"warm re-analysis is bit-identical to cold"
    (make gen) (fun (volts, henries, edit, jobs) ->
      let saved = Exec.default_jobs () in
      Fun.protect
        ~finally:(fun () -> Exec.set_default_jobs saved)
        (fun () ->
          Exec.set_default_jobs jobs;
          let d1 = mk_diagram ~volts ~henries () in
          let r1 = default_reliability in
          let d2, r2 =
            match edit with
            | `Volts v -> (mk_diagram ~volts:v ~henries (), r1)
            | `Henries h -> (mk_diagram ~volts ~henries:h (), r1)
            | `Fit (ty, delta) -> (
                ( d1,
                  match Reliability.Reliability_model.find r1 ty with
                  | Some e ->
                      Reliability.Reliability_model.add r1
                        {
                          e with
                          Reliability.Reliability_model.fit =
                            e.Reliability.Reliability_model.fit +. delta;
                        }
                  | None -> r1 ))
          in
          let engine = Engine.Pipeline.create () in
          let prev_table =
            Engine.Pipeline.injection_fmea engine
              ~options:Fmea.Injection_fmea.default_options d1 r1
          in
          let warm =
            Engine.Pipeline.injection_fmea engine
              ~previous:
                {
                  Engine.Pipeline.prev_diagram = d1;
                  prev_reliability = r1;
                  prev_table;
                }
              ~options:Fmea.Injection_fmea.default_options d2 r2
          in
          let cold = analyse_cold d2 r2 in
          Fmea.Table.equal warm cold))

(* After a one-component reliability edit to System B, the warm run must
   do strictly fewer solves than the cold run — and reuse rows. *)
let test_system_b_fewer_solves () =
  let subject = Fixtures.Systems.system_b in
  let diagram = subject.Fixtures.Systems.diagram in
  let reliability = subject.Fixtures.Systems.reliability in
  let options =
    {
      Fmea.Injection_fmea.default_options with
      exclude = [ "DC1"; "BAT1" ];
      monitored_sensors = Some [ "CS1"; "CS2"; "VS1" ];
    }
  in
  let edited =
    match Reliability.Reliability_model.find reliability "microcontroller" with
    | Some e ->
        Reliability.Reliability_model.add reliability
          {
            e with
            Reliability.Reliability_model.fit =
              e.Reliability.Reliability_model.fit +. 25.0;
          }
    | None -> Alcotest.fail "System B has a microcontroller entry"
  in
  let cold_engine = Engine.Pipeline.create () in
  let cold_table =
    Engine.Pipeline.injection_fmea cold_engine ~options diagram edited
  in
  let cold = Engine.Pipeline.snapshot cold_engine in
  let warm_engine = Engine.Pipeline.create () in
  let prev_table =
    Engine.Pipeline.injection_fmea warm_engine ~options diagram reliability
  in
  Engine.Stats.reset (Engine.Pipeline.stats warm_engine);
  let warm_table =
    Engine.Pipeline.injection_fmea warm_engine
      ~previous:
        {
          Engine.Pipeline.prev_diagram = diagram;
          prev_reliability = reliability;
          prev_table;
        }
      ~options diagram edited
  in
  let warm = Engine.Pipeline.snapshot warm_engine in
  Alcotest.check table "warm equals cold" cold_table warm_table;
  Alcotest.(check bool)
    (Printf.sprintf "strictly fewer solves (warm %d < cold %d)"
       (Engine.Stats.solves_performed warm)
       (Engine.Stats.solves_performed cold))
    true
    (Engine.Stats.solves_performed warm < Engine.Stats.solves_performed cold);
  Alcotest.(check bool) "rows were reused" true
    (warm.Engine.Stats.rows_reused > 0)

(* Work budgets of the warm edit path on System B.  A FIT-only edit
   re-prices the edited type's rows from the previous table: no faulted
   solve, every row reused.  The minor-heap words of one FIT edit and of
   one load-ohms edit (a new golden factorisation and a re-solve of every
   row) stay under bounds measured on this code with headroom, so a
   change that adds per-edit garbage shows here. *)
let test_edit_work_budgets () =
  let subject = Fixtures.Systems.system_b in
  let diagram = subject.Fixtures.Systems.diagram in
  let reliability = subject.Fixtures.Systems.reliability in
  let options =
    {
      Fmea.Injection_fmea.default_options with
      exclude = [ "DC1"; "BAT1" ];
      monitored_sensors = Some [ "CS1"; "CS2"; "VS1" ];
    }
  in
  let with_fit r ty delta =
    match Reliability.Reliability_model.find r ty with
    | Some e ->
        Reliability.Reliability_model.add r
          {
            e with
            Reliability.Reliability_model.fit =
              e.Reliability.Reliability_model.fit +. delta;
          }
    | None -> Alcotest.fail ("System B has a " ^ ty ^ " entry")
  in
  let with_ohms (d : Blockdiag.Diagram.t) ohms =
    {
      d with
      Blockdiag.Diagram.blocks =
        List.map
          (fun (b : Blockdiag.Diagram.block) ->
            if b.Blockdiag.Diagram.block_id = "THR1" then
              {
                b with
                Blockdiag.Diagram.parameters =
                  [ ("ohms", Blockdiag.Diagram.P_num ohms) ];
              }
            else b)
          d.Blockdiag.Diagram.blocks;
    }
  in
  Exec.with_jobs 1 @@ fun () ->
  let engine = Engine.Pipeline.create () in
  let stats = Engine.Pipeline.stats engine in
  (* Each edit takes the previous one's inputs and table as its
     baseline, as a daemon session does. *)
  let state =
    ref
      ( diagram,
        reliability,
        Engine.Pipeline.injection_fmea engine ~options diagram reliability )
  in
  let edit d r =
    let prev_diagram, prev_reliability, prev_table = !state in
    Engine.Stats.reset stats;
    let before = Gc.minor_words () in
    let table =
      Engine.Pipeline.injection_fmea engine
        ~previous:{ Engine.Pipeline.prev_diagram; prev_reliability; prev_table }
        ~options d r
    in
    let words = Gc.minor_words () -. before in
    state := (d, r, table);
    (table, Engine.Pipeline.snapshot engine, words)
  in
  (* One round of both edits first, so nothing the first edit of a
     process initialises counts. *)
  let r1 = with_fit reliability "microcontroller" 25.0 in
  ignore (edit diagram r1);
  let d1 = with_ohms diagram 50.0 in
  ignore (edit d1 r1);
  let r2 = with_fit r1 "load" 5.0 in
  let t, s, fit_words = edit d1 r2 in
  Alcotest.check table "FIT edit equals cold" (analyse_cold ~options d1 r2) t;
  Alcotest.(check int) "FIT edit: no rank updates" 0 s.Engine.Stats.rank_updates;
  Alcotest.(check int) "FIT edit: no golden-reused solves" 0 s.Engine.Stats.reused;
  Alcotest.(check int) "FIT edit: every row reused" 139 s.Engine.Stats.rows_reused;
  Alcotest.(check int) "System B has 139 rows" 139 (List.length t.Fmea.Table.rows);
  let d2 = with_ohms d1 52.0 in
  let t, s, ohms_words = edit d2 r2 in
  Alcotest.check table "ohms edit equals cold" (analyse_cold ~options d2 r2) t;
  Alcotest.(check int) "ohms edit: one golden solve" 1 s.Engine.Stats.golden_solves;
  Alcotest.(check bool)
    (Printf.sprintf "FIT edit: %.0f minor words <= 12,000" fit_words)
    true (fit_words <= 12_000.);
  Alcotest.(check bool)
    (Printf.sprintf "load-ohms edit: %.0f minor words <= 120,000" ohms_words)
    true (ohms_words <= 120_000.)

(* Work budget of the Step 4b search on System B under the benchmark's
   options (supplies excluded, the three safety sensors monitored, the
   extended catalogue; the reliability model as its spreadsheet reads
   back), at one job.  The search scores 1,056 of the 62,208
   combinations and skips the others in subtrees whose bounds cannot
   win; a change that loosens a bound or the skip rule scores more.
   With no sensor monitored, the greedy fallback scores 2,579 moves in
   ~259k minor words, the table's fingerprint and the scan's
   construction included; a change that rebuilds a deployment list per
   move allocates about a hundred times more. *)
let test_search_work_budget () =
  let subject = Fixtures.Systems.system_b in
  let reliability =
    Reliability.Reliability_model.of_spreadsheet
      (Reliability.Reliability_model.to_spreadsheet
         subject.Fixtures.Systems.reliability)
  in
  Exec.with_jobs 1 @@ fun () ->
  let engine = Engine.Pipeline.create () in
  let r =
    Decisive.Api.fmeda ~engine ~target:Ssam.Requirement.ASIL_B
      ~exclude:[ "DC1"; "BAT1" ] ~monitored_sensors:[ "CS1"; "CS2"; "VS1" ]
      subject.Fixtures.Systems.diagram reliability
      Reliability.Sm_model.extended_catalogue
  in
  Alcotest.(check bool) "meets ASIL-B" true r.Decisive.Api.meets_target;
  let s = Engine.Pipeline.snapshot engine in
  Alcotest.(check bool)
    (Printf.sprintf "%d of 62,208 combinations scored: <= 1,200"
       s.Engine.Stats.search_scored)
    true
    (s.Engine.Stats.search_scored > 0 && s.Engine.Stats.search_scored <= 1_200);
  Alcotest.(check bool)
    (Printf.sprintf "%d subtrees skipped" s.Engine.Stats.search_pruned)
    true
    (s.Engine.Stats.search_pruned > 0);
  (* With no sensor monitored the space exceeds the exhaustive cap and
     the greedy fallback answers, scoring each move on the scan. *)
  let diagram = subject.Fixtures.Systems.diagram in
  let table =
    Decisive.Api.analyse ~engine ~exclude:[ "DC1"; "BAT1" ] diagram reliability
  in
  let component_types =
    (Engine.Pipeline.convert engine diagram).Blockdiag.To_netlist.block_types
  in
  Engine.Stats.reset (Engine.Pipeline.stats engine);
  let before = Gc.minor_words () in
  let chosen, _ =
    Engine.Pipeline.optimise engine ~component_types
      ~target:Ssam.Requirement.ASIL_B table
      Reliability.Sm_model.extended_catalogue
  in
  let words = Gc.minor_words () -. before in
  Alcotest.(check (option (float 0.0)))
    "greedy: the cost golden/system_b_optimize.txt pins" (Some 127.5)
    (Option.map (fun c -> c.Optimize.Search.cost) chosen);
  let s = Engine.Pipeline.snapshot engine in
  Alcotest.(check bool)
    (Printf.sprintf "greedy: %d moves scored <= 2,600"
       s.Engine.Stats.search_scored)
    true
    (s.Engine.Stats.search_scored > 0 && s.Engine.Stats.search_scored <= 2_600);
  Alcotest.(check int) "greedy: nothing skipped" 0 s.Engine.Stats.search_pruned;
  Alcotest.(check bool)
    (Printf.sprintf "greedy: %.0f minor words <= 300,000" words)
    true (words <= 300_000.)

(* Every injection the engine classifies is served one way: a low-rank
   update against the golden factors, or the golden solution as is (the
   fault changed no stamp) — and [--explain] counts each apart. *)
let test_solve_paths_add_up () =
  let e = Engine.Pipeline.create () in
  ignore
    (Engine.Pipeline.injection_fmea e
       ~options:Fixtures.Case_study.injection_options
       Fixtures.Case_study.power_supply_diagram
       Fixtures.Case_study.reliability_model);
  let s = Engine.Pipeline.snapshot e in
  Alcotest.(check int) "rank updates + reused = injections"
    s.Engine.Stats.rows_classified
    (s.Engine.Stats.rank_updates + s.Engine.Stats.reused);
  Alcotest.(check bool) "some injections reuse the golden solution" true
    (s.Engine.Stats.reused > 0);
  Alcotest.(check bool) "some injections are rank updates" true
    (s.Engine.Stats.rank_updates > 0);
  (* A reused injection runs no solve: the count is the golden solve
     plus the faulted solves actually run. *)
  Alcotest.(check int) "solves = golden + rank updates"
    (s.Engine.Stats.golden_solves + s.Engine.Stats.rank_updates)
    (Engine.Stats.solves_performed s);
  Alcotest.(check bool) "fewer solves than golden + injections" true
    (Engine.Stats.solves_performed s
    < s.Engine.Stats.golden_solves + s.Engine.Stats.rows_classified)

(* Newton iterations are counted, golden and per injected fault, the same
   at any job count.  Each iteration may move a node by max(1 V, |v|): on
   System B a fault that moves a rail settles in ~4 iterations, and the
   golden solve in 8.  A fixed 0.5 V clamp took ~27 per fault and 49 for
   the golden solve, so these bounds fail if it comes back. *)
let test_system_b_newton_iterations () =
  let subject = Fixtures.Systems.system_b in
  let options =
    {
      Fmea.Injection_fmea.default_options with
      exclude = [ "DC1"; "BAT1" ];
      monitored_sensors = Some [ "CS1"; "CS2"; "VS1" ];
    }
  in
  let counts jobs =
    Exec.with_jobs jobs (fun () ->
        let e = Engine.Pipeline.create () in
        ignore
          (Engine.Pipeline.injection_fmea e ~options
             subject.Fixtures.Systems.diagram
             subject.Fixtures.Systems.reliability);
        let s = Engine.Pipeline.snapshot e in
        ( s.Engine.Stats.golden_newton,
          s.Engine.Stats.fault_newton,
          s.Engine.Stats.newton_faults ))
  in
  let ((golden, iterations, faults) as one) = counts 1 in
  Alcotest.(check (triple int int int)) "same counts at 1 and 2 jobs" one
    (counts 2);
  Alcotest.(check bool) "some faults run Newton" true (faults > 0);
  Alcotest.(check bool)
    (Printf.sprintf "golden solve: %d <= 12 iterations" golden)
    true (golden <= 12);
  Alcotest.(check bool)
    (Printf.sprintf "%d iterations over %d faults: <= 8 per fault" iterations
       faults)
    true
    (iterations <= 8 * faults)

(* The live golden-run memo is bounded: a long run of distinct diagram
   edits keeps at most [live_cap] golden runs, and the most recent one
   is still there for the next reliability edit. *)
let test_golden_runs_bounded () =
  let e = Engine.Pipeline.create () in
  let options = Fmea.Injection_fmea.default_options in
  let analyse ?previous d r =
    Engine.Pipeline.injection_fmea e ?previous ~options d r
  in
  let previous (d, t) =
    {
      Engine.Pipeline.prev_diagram = d;
      prev_reliability = default_reliability;
      prev_table = t;
    }
  in
  let edits = 200 in
  let last =
    List.fold_left
      (fun prev i ->
        let d = mk_diagram ~volts:(3.0 +. (0.01 *. float_of_int i)) () in
        let previous = Option.map previous prev in
        Some (d, analyse ?previous d default_reliability))
      None (List.init edits Fun.id)
    |> Option.get
  in
  let golden () = (Engine.Pipeline.snapshot e).Engine.Stats.golden_solves in
  Alcotest.(check int) "one golden solve per distinct circuit" edits (golden ());
  Alcotest.(check bool)
    (Printf.sprintf "golden runs held %d <= cap %d"
       (Engine.Pipeline.golden_runs_held e)
       Engine.Pipeline.live_cap)
    true
    (Engine.Pipeline.golden_runs_held e <= Engine.Pipeline.live_cap);
  let edited =
    match
      Reliability.Reliability_model.find default_reliability "microcontroller"
    with
    | Some en ->
        Reliability.Reliability_model.add default_reliability
          {
            en with
            Reliability.Reliability_model.fit =
              en.Reliability.Reliability_model.fit +. 50.0;
          }
    | None -> Alcotest.fail "no microcontroller entry"
  in
  let warm = analyse ~previous:(previous last) (fst last) edited in
  Alcotest.(check int) "the last golden run is reused" edits (golden ());
  Alcotest.check table "still equals cold" (analyse_cold (fst last) edited) warm

(* ---------- pipeline: search and path stages ---------- *)

let test_optimise_warm_equals_cold () =
  let fmea = Fixtures.Case_study.fmea_via_injection () in
  let sm = Fixtures.Case_study.sm_model in
  let target = Ssam.Requirement.ASIL_B in
  let cold_chosen, cold_front = Optimize.Search.optimise ~target fmea sm in
  let e = Engine.Pipeline.create () in
  let warm_chosen, warm_front = Engine.Pipeline.optimise e ~target fmea sm in
  Alcotest.(check bool) "chosen agrees" true
    (Option.equal Optimize.Search.equal_candidate cold_chosen warm_chosen);
  Alcotest.(check bool) "front agrees" true
    (List.equal Optimize.Search.equal_candidate cold_front warm_front);
  let _ = Engine.Pipeline.optimise e ~target fmea sm in
  let s = Engine.Pipeline.snapshot e in
  Alcotest.(check bool) "re-search hits the cache" true
    (Engine.Stats.hits s >= 1)

(* The references below call the kernels directly: every [Decisive.Api]
   entry point runs on a pipeline, so an engine-free value comes only from
   the libraries underneath it. *)
let test_api_refine_warm_equals_cold () =
  let fmea = Fixtures.Case_study.fmea_via_injection () in
  let sm = Fixtures.Case_study.sm_model in
  let target = Ssam.Requirement.ASIL_B in
  let cold_chosen, _ = Optimize.Search.optimise ~target fmea sm in
  let cold =
    match cold_chosen with
    | Some c -> Fmea.Fmeda.apply fmea c.Optimize.Search.deployments
    | None -> fmea
  in
  let e = Engine.Pipeline.create () in
  let warm = Decisive.Api.refine ~engine:e ~target fmea sm in
  Alcotest.check table "refined tables agree" cold
    warm.Decisive.Api.refined_table;
  Alcotest.(check (float 0.0)) "achieved SPFM agrees" (Fmea.Metrics.spfm cold)
    warm.Decisive.Api.achieved_spfm;
  let _ = Decisive.Api.refine ~engine:e ~target fmea sm in
  Alcotest.(check bool) "second run hit" true
    (Engine.Stats.hits (Engine.Pipeline.snapshot e) >= 1)

let test_api_routes_warm_equals_cold () =
  let diagram = Fixtures.Case_study.power_supply_diagram in
  let reliability = Fixtures.Case_study.reliability_model in
  let exclude = [ "DC1" ] in
  let root = Decisive.Api.functional_root ~reliability diagram in
  List.iter
    (fun route ->
      let cold =
        match route with
        | Decisive.Api.Via_injection ->
            analyse_cold
              ~options:{ Fmea.Injection_fmea.default_options with exclude }
              diagram reliability
        | Decisive.Api.Via_ssam_paths ->
            Fmea.Path_fmea.analyse
              ~options:{ Fmea.Path_fmea.default_options with exclude }
              root
        | Decisive.Api.Via_fta ->
            let t = Fta.Fmea_from_fta.analyse root in
            {
              t with
              Fmea.Table.rows =
                List.filter
                  (fun (r : Fmea.Table.row) ->
                    not (List.mem r.Fmea.Table.component exclude))
                  t.Fmea.Table.rows;
            }
      in
      let e = Engine.Pipeline.create () in
      let warm =
        Decisive.Api.analyse ~engine:e ~route ~exclude:[ "DC1" ] diagram
          reliability
      in
      Alcotest.check table "route agrees with cold" cold warm;
      let again =
        Decisive.Api.analyse ~engine:e ~route ~exclude:[ "DC1" ] diagram
          reliability
      in
      Alcotest.check table "route cache hit agrees" cold again;
      Alcotest.(check bool) "second run hit" true
        (Engine.Stats.hits (Engine.Pipeline.snapshot e) >= 1))
    [ Decisive.Api.Via_injection; Decisive.Api.Via_ssam_paths; Decisive.Api.Via_fta ]

(* ---------- pipeline: assurance claims ---------- *)

let test_assurance_claim_reuse () =
  with_temp_dir (fun dir ->
      let csv = Filename.concat dir "evidence.csv" in
      let write rows =
        let oc = open_out csv in
        output_string oc "name,value\n";
        List.iter (fun r -> output_string oc (r ^ "\n")) rows;
        close_out oc
      in
      write [ "a,1"; "b,2" ];
      let case =
        let open Assurance.Sacm in
        {
          case_name = "claim-reuse";
          root =
            goal ~id:"G1" "the evidence is plentiful"
              ~supported_by:
                [
                  solution ~id:"Sn1" "row count"
                    ~artifact:
                      (artifact ~query:"return Artifact.rows.size() >= 2;"
                         ~location:csv ~driver:"csv" ());
                ];
        }
      in
      let e = Engine.Pipeline.create () in
      let r1 = Engine.Pipeline.evaluate_case e case in
      Alcotest.(check bool) "holds with two rows" true
        (r1.Assurance.Eval.overall = Assurance.Eval.Holds);
      (* Same file: the claim verdict comes from the memo. *)
      let _ = Engine.Pipeline.evaluate_case e case in
      let s = Engine.Pipeline.snapshot e in
      Alcotest.(check bool) "unchanged artefact is a hit" true
        (Engine.Stats.hits s >= 1);
      (* Rewriting the evidence moves the artifact fingerprint, so the
         claim is re-evaluated — and the verdict flips. *)
      write [ "a,1" ];
      let r2 = Engine.Pipeline.evaluate_case e case in
      Alcotest.(check bool) "fails after the evidence shrank" true
        (r2.Assurance.Eval.overall = Assurance.Eval.Fails);
      (* The cold evaluator agrees both times. *)
      let cold = Assurance.Eval.evaluate case in
      Alcotest.(check bool) "warm verdict equals cold" true
        (cold.Assurance.Eval.overall = r2.Assurance.Eval.overall))

(* ---------- batch fleet ---------- *)

(* Six design variants cycle three electrical designs, so one warm
   engine must perform exactly three golden factorisations — strictly
   fewer than the six a cold fleet pays — while every per-variant table
   stays bit-identical to its standalone analysis. *)
let test_fleet_shares_golden () =
  let variants = Fixtures.Case_study.design_variants ~count:6 () in
  let options = Fixtures.Case_study.injection_options in
  let reliability = Fixtures.Case_study.reliability_model in
  let engine = Engine.Pipeline.create () in
  let summary = Engine.Batch.run_fmea engine ~options variants reliability in
  let snap = Engine.Pipeline.snapshot engine in
  Alcotest.(check int) "three designs" 3 summary.Engine.Batch.f_distinct_designs;
  Alcotest.(check bool)
    (Printf.sprintf "fewer golden solves than variants (%d < 6)"
       snap.Engine.Stats.golden_solves)
    true
    (snap.Engine.Stats.golden_solves < List.length variants);
  Alcotest.(check int) "exactly one golden solve per design" 3
    snap.Engine.Stats.golden_solves;
  List.iter2
    (fun (label, diagram) (e : Engine.Batch.fmea_entry) ->
      Alcotest.(check string) "entries in input order" label
        e.Engine.Batch.b_label;
      let standalone =
        Engine.Pipeline.injection_fmea
          (Engine.Pipeline.create ())
          ~options diagram reliability
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s identical to standalone" label)
        true
        (Fmea.Table.equal standalone e.Engine.Batch.b_table))
    variants summary.Engine.Batch.f_entries;
  (* A second fleet over the same engine is pure cache hits: no new
     solves at all. *)
  let summary2 = Engine.Batch.run_fmea engine ~options variants reliability in
  let snap2 = Engine.Pipeline.snapshot engine in
  Alcotest.(check int) "no new golden solves" snap.Engine.Stats.golden_solves
    snap2.Engine.Stats.golden_solves;
  Alcotest.(check int) "no new classifications"
    snap.Engine.Stats.rows_classified snap2.Engine.Stats.rows_classified;
  Alcotest.(check bool) "cache hits recorded" true
    (Engine.Stats.hits snap2 >= List.length variants);
  List.iter2
    (fun (e1 : Engine.Batch.fmea_entry) (e2 : Engine.Batch.fmea_entry) ->
      Alcotest.(check bool) "second run identical" true
        (Fmea.Table.equal e1.Engine.Batch.b_table e2.Engine.Batch.b_table))
    summary.Engine.Batch.f_entries summary2.Engine.Batch.f_entries

let suite =
  [
    Alcotest.test_case "fingerprint: diagram" `Quick test_fingerprint_diagram;
    Alcotest.test_case "fingerprint: reliability order" `Quick
      test_fingerprint_reliability_order_insensitive;
    Alcotest.test_case "fingerprint: subtree locality" `Quick
      test_fingerprint_subtree_locality;
    Alcotest.test_case "fingerprint: diagram floats bit for bit" `Quick
      test_fingerprint_diagram_floats_exact;
    Alcotest.test_case "fingerprint: reliability floats bit for bit" `Quick
      test_fingerprint_reliability_floats_exact;
    Alcotest.test_case "fingerprint: sharing-independent" `Quick
      test_fingerprint_sharing_independent;
    Alcotest.test_case "cache: LRU eviction" `Quick test_cache_lru;
    Alcotest.test_case "cache: disk round-trip" `Quick test_cache_disk_roundtrip;
    Alcotest.test_case "cache: corruption recovery" `Quick
      test_cache_corruption_recovers;
    Alcotest.test_case "cache: concurrent domains" `Quick
      test_cache_concurrent_access;
    Alcotest.test_case "pipeline: warm equals cold" `Quick
      test_warm_equals_cold_basic;
    QCheck_alcotest.to_alcotest prop_warm_equals_cold;
    Alcotest.test_case "pipeline: System B fewer solves" `Quick
      test_system_b_fewer_solves;
    Alcotest.test_case "pipeline: edit work budgets" `Quick test_edit_work_budgets;
    Alcotest.test_case "pipeline: search work budget" `Quick
      test_search_work_budget;
    Alcotest.test_case "pipeline: solve paths add up" `Quick
      test_solve_paths_add_up;
    Alcotest.test_case "pipeline: System B Newton iterations" `Quick
      test_system_b_newton_iterations;
    Alcotest.test_case "pipeline: golden runs bounded" `Quick
      test_golden_runs_bounded;
    Alcotest.test_case "pipeline: optimise warm equals cold" `Quick
      test_optimise_warm_equals_cold;
    Alcotest.test_case "api: refine through the engine" `Quick
      test_api_refine_warm_equals_cold;
    Alcotest.test_case "api: all routes through the engine" `Quick
      test_api_routes_warm_equals_cold;
    Alcotest.test_case "fleet: shared golden, identical tables" `Quick
      test_fleet_shares_golden;
    Alcotest.test_case "pipeline: assurance claim reuse" `Quick
      test_assurance_claim_reuse;
  ]
