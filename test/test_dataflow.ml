(* Tests for lib/dataflow: the worklist fixpoint engine (termination and
   monotone ascent on cyclic graphs), the propagation model builders,
   and the backward-diagnosis-vs-forward-FMEA differential oracle. *)

module Fixpoint = Dataflow.Fixpoint
module Model = Dataflow.Model
module Passes = Dataflow.Passes
module Diagnose = Dataflow.Diagnose

let mode_keys = List.map (fun (m : Model.mode) -> m.Model.m_key)

(* ---------- fixpoint engine ---------- *)

(* Max-of-ints lattice: enough structure to watch the ascent converge on
   a cycle (a non-trivial SCC iterates until stable). *)
module MaxInt = struct
  type t = int

  let bottom = 0
  let join = max
  let leq a b = a <= b
end

let test_fixpoint_cycle_terminates () =
  let g =
    Graph.Digraph.of_edges
      [ ("a", "b"); ("b", "c"); ("c", "a"); ("c", "d") ]
  in
  let weight n = match Graph.Digraph.name g n with "b" -> 7 | _ -> 1 in
  let values, stats =
    Fixpoint.solve
      (module MaxInt)
      ~jobs:1 ~direction:Fixpoint.Forward ~init:weight
      ~transfer:(fun _ v -> v)
      g
  in
  let at id = values.(Option.get (Graph.Digraph.index g id)) in
  (* The cycle pumps b's weight everywhere it reaches. *)
  List.iter
    (fun id -> Alcotest.(check int) (id ^ " saturates") 7 (at id))
    [ "a"; "b"; "c"; "d" ];
  Alcotest.(check int) "two SCCs" 2 stats.Fixpoint.sccs;
  Alcotest.(check bool) "finitely many iterations" true
    (stats.Fixpoint.iterations > 0 && stats.Fixpoint.iterations < 100)

let test_fixpoint_matches_reachability () =
  (* With an identity transfer and singleton seeds, the forward fixpoint
     over the bitset lattice is exactly transitive reachability —
     cross-checked against the BFS kernel on a cyclic graph. *)
  let g =
    Graph.Digraph.of_edges
      [
        ("a", "b"); ("b", "c"); ("c", "b"); ("c", "d"); ("e", "d"); ("d", "e");
      ]
  in
  let n = Graph.Digraph.node_count g in
  let lattice =
    (module struct
      type t = Graph.Bitset.t

      let bottom = Graph.Bitset.create n

      let join a b =
        let c = Graph.Bitset.copy a in
        ignore (Graph.Bitset.union_into ~into:c b);
        c

      let leq = Graph.Bitset.subset
    end : Fixpoint.LATTICE
      with type t = Graph.Bitset.t)
  in
  let init u =
    let s = Graph.Bitset.create n in
    Graph.Bitset.add s u;
    s
  in
  let values, _ =
    Fixpoint.solve lattice ~jobs:1 ~direction:Fixpoint.Forward ~init
      ~transfer:(fun _ v -> v)
      g
  in
  for source = 0 to n - 1 do
    let bfs = Graph.Digraph.reachable_from g [ source ] in
    for target = 0 to n - 1 do
      Alcotest.(check bool)
        (Printf.sprintf "%s reaches %s" (Graph.Digraph.name g source)
           (Graph.Digraph.name g target))
        (Graph.Bitset.mem bfs target)
        (Graph.Bitset.mem values.(target) source)
    done
  done

let test_fixpoint_non_monotone_still_terminates () =
  (* A transfer that oscillates (flip 1<->2) is not monotone; the
     engine's ascending join (new = join old (transfer inflow)) still
     terminates and only ever moves values upward. *)
  let g = Graph.Digraph.of_edges [ ("a", "b"); ("b", "a") ] in
  let flip = function 1 -> 2 | 2 -> 1 | v -> v in
  let values, stats =
    Fixpoint.solve
      (module MaxInt)
      ~jobs:1 ~direction:Fixpoint.Forward
      ~init:(fun _ -> 1)
      ~transfer:(fun _ v -> flip v)
      g
  in
  Alcotest.(check bool) "terminated" true (stats.Fixpoint.iterations < 100);
  Array.iter
    (fun v -> Alcotest.(check bool) "never descended below init" true (v >= 1))
    values;
  Alcotest.(check bool) "the oscillation was absorbed upward" true
    (Array.exists (fun v -> v = 2) values)

(* ---------- differential oracle on generator architectures ---------- *)

let check_oracle ?(jobs = 1) (m : Model.t) =
  let forward = Passes.forward_taint ~jobs m in
  let backward = Passes.backward_reach ~jobs m in
  let agree, pairs = Passes.agreement m ~forward ~backward in
  Alcotest.(check bool) "forward/backward agree" true agree;
  (* The forward FMEA's safety-related rows are exactly the backward
     explanations of some output (all generator modes are loss-like and
     no generator component is redundant). *)
  let fmea = Passes.forward_fmea ~jobs m in
  let safety_rows =
    List.filter_map
      (fun (r : Fmea.Table.row) ->
        if r.Fmea.Table.safety_related then
          Some (r.Fmea.Table.component ^ "/" ^ r.Fmea.Table.failure_mode)
        else None)
      fmea.Fmea.Table.rows
    |> List.sort_uniq String.compare
  in
  let backward_keys =
    List.concat_map
      (fun output -> mode_keys (Passes.backward_explains m backward ~output))
      (Model.output_names m)
    |> List.sort_uniq String.compare
  in
  Alcotest.(check (list string))
    "backward explanations == forward FMEA rows" safety_rows backward_keys;
  pairs

let test_diamond_oracle () =
  let m = Model.of_architecture (Circuit.Generator.diamond_arch ~stages:4) in
  let pairs = check_oracle m in
  Alcotest.(check bool) "pairs checked" true (pairs > 0);
  (* Every component reaches the final junction. *)
  let backward = Passes.backward_reach ~jobs:1 m in
  Alcotest.(check int) "all modes explain J4"
    (Model.mode_count m)
    (List.length (Passes.backward_explains m backward ~output:"J4"))

let test_grid_oracle () =
  let m = Model.of_architecture (Circuit.Generator.grid_arch ~rows:3 ~cols:4) in
  ignore (check_oracle m)

let test_jobs_deterministic () =
  let archs =
    [
      Circuit.Generator.diamond_arch ~stages:5;
      Circuit.Generator.grid_arch ~rows:4 ~cols:4;
    ]
  in
  List.iter
    (fun arch ->
      let m = Model.of_architecture arch in
      let f1 = Passes.forward_taint ~jobs:1 m in
      let f4 = Passes.forward_taint ~jobs:4 m in
      Alcotest.(check bool) "forward sets bit-identical" true
        (Array.for_all2 Graph.Bitset.equal f1.Passes.sets f4.Passes.sets);
      Alcotest.(check int) "forward iterations identical"
        f1.Passes.stats.Fixpoint.iterations f4.Passes.stats.Fixpoint.iterations;
      let b1 = Passes.backward_reach ~jobs:1 m in
      let b4 = Passes.backward_reach ~jobs:4 m in
      Alcotest.(check bool) "backward sets bit-identical" true
        (Array.for_all2 Graph.Bitset.equal b1.Passes.sets b4.Passes.sets))
    archs

let qcheck_oracle =
  QCheck.Test.make ~count:30 ~name:"random layered architectures: oracle"
    QCheck.(triple (int_range 1 6) (int_range 1 4) (int_range 1 5))
    (fun (stages, rows, cols) ->
      let check arch =
        let m = Model.of_architecture arch in
        let f1 = Passes.forward_taint ~jobs:1 m in
        let f4 = Passes.forward_taint ~jobs:4 m in
        let b1 = Passes.backward_reach ~jobs:1 m in
        let agree, _ = Passes.agreement m ~forward:f1 ~backward:b1 in
        agree
        && Array.for_all2 Graph.Bitset.equal f1.Passes.sets f4.Passes.sets
      in
      check (Circuit.Generator.diamond_arch ~stages)
      && check (Circuit.Generator.grid_arch ~rows ~cols))

(* ---------- diagnosis on the paper's PSU circuit ---------- *)

let psu_model () =
  Model.of_diagram
    ~reliability:Decisive.Case_study.reliability_model
    Decisive.Case_study.power_supply_diagram

let test_psu_structural_candidates () =
  let m = psu_model () in
  Alcotest.(check (list string)) "CS1 is the observation point" [ "CS1" ]
    (Model.output_names m);
  let backward = Passes.backward_reach ~jobs:1 m in
  (* Ground is dropped; every remaining reliability-backed block reaches
     the sensor through the electrical net. *)
  Alcotest.(check bool) "D1 open is a candidate" true
    (List.mem "D1/Open" (mode_keys (Passes.backward_explains m backward ~output:"CS1")));
  let agree, _ =
    Passes.agreement m ~forward:(Passes.forward_taint ~jobs:1 m) ~backward
  in
  Alcotest.(check bool) "oracle agrees on the PSU" true agree

(* The circuit-level differential oracle: confirmed backward explanations
   == safety-related forward injection-FMEA rows, both monitoring CS1. *)
let test_psu_diagnosis_matches_injection () =
  let diagram = Decisive.Case_study.power_supply_diagram in
  let reliability = Decisive.Case_study.reliability_model in
  let options =
    {
      Decisive.Case_study.injection_options with
      Fmea.Injection_fmea.monitored_sensors = Some [ "CS1" ];
    }
  in
  let m = psu_model () in
  let verify =
    match
      Diagnose.circuit_verifier ~options ~reliability ~output:"CS1" diagram
    with
    | Ok v -> v
    | Error why -> Alcotest.fail ("verifier unavailable: " ^ why)
  in
  let report =
    match Diagnose.diagnose ~jobs:1 ~verify m ~output:"CS1" with
    | Ok r -> r
    | Error m -> Alcotest.fail m
  in
  let confirmed =
    List.filter_map
      (fun (e : Diagnose.explanation) ->
        match e.Diagnose.verdict with
        | Diagnose.Confirmed _ -> Some e.Diagnose.mode.Model.m_key
        | _ -> None)
      report.Diagnose.candidates
    |> List.sort_uniq String.compare
  in
  let { Blockdiag.To_netlist.netlist; block_types; _ } =
    Blockdiag.To_netlist.convert diagram
  in
  let injection_rows =
    (Fmea.Injection_fmea.analyse ~options ~element_types:block_types netlist
       reliability)
      .Fmea.Table.rows
  in
  let forward_safety =
    List.filter_map
      (fun (r : Fmea.Table.row) ->
        if r.Fmea.Table.safety_related then
          Some (r.Fmea.Table.component ^ "/" ^ r.Fmea.Table.failure_mode)
        else None)
      injection_rows
    |> List.sort_uniq String.compare
  in
  Alcotest.(check (list string))
    "confirmed backward explanations == forward injection rows"
    forward_safety confirmed;
  (* Paper Table IV, restricted to CS1. *)
  Alcotest.(check (list string)) "the paper's single points"
    [ "D1/Open"; "L1/Open"; "MC1/RAM Failure" ]
    confirmed;
  Alcotest.(check (list (list string))) "minimal singles"
    [ [ "D1/Open" ]; [ "L1/Open" ]; [ "MC1/RAM Failure" ] ]
    (List.sort compare report.Diagnose.singles);
  Alcotest.(check bool) "no doubles on the PSU" true
    (report.Diagnose.doubles = [])

let test_psu_jobs_identical () =
  let m = psu_model () in
  let run jobs =
    match Diagnose.diagnose ~jobs m ~output:"CS1" with
    | Ok r -> r
    | Error m -> Alcotest.fail m
  in
  let r1 = run 1 and r4 = run 4 in
  Alcotest.(check (list string)) "same candidates at jobs 1 and 4"
    (List.map (fun (e : Diagnose.explanation) -> e.Diagnose.mode.Model.m_key)
       r1.Diagnose.candidates)
    (List.map (fun (e : Diagnose.explanation) -> e.Diagnose.mode.Model.m_key)
       r4.Diagnose.candidates);
  Alcotest.(check int) "same iteration count"
    r1.Diagnose.stats.Fixpoint.iterations r4.Diagnose.stats.Fixpoint.iterations

(* ---------- cyclic diagram: termination and soundness ---------- *)

let cyclic_diagram () =
  let open Blockdiag.Diagram in
  let ctl id =
    block ~id ~block_type:"ctrl"
      ~ports:
        [
          { port_name = "i"; port_kind = In_port };
          { port_name = "o"; port_kind = Out_port };
        ]
      ()
  in
  let sensor =
    block ~id:"S1" ~block_type:"current_sensor"
      ~ports:[ { port_name = "i"; port_kind = In_port } ]
      ()
  in
  diagram ~name:"loop"
    ~connections:
      [
        connect ("ctl1", "o") ("ctl2", "i");
        connect ("ctl2", "o") ("ctl1", "i");
        connect ("ctl2", "o") ("S1", "i");
      ]
    [ ctl "ctl1"; ctl "ctl2"; sensor ]

let ctrl_reliability =
  Reliability.Reliability_model.of_entries
    [
      {
        Reliability.Reliability_model.component_type = "ctrl";
        fit = 10.0;
        failure_modes =
          [
            {
              Reliability.Reliability_model.fm_name = "Stuck";
              distribution_pct = 100.0;
              fault = None;
              loss_of_function = true;
            };
          ];
      };
    ]

let test_cyclic_diagram_diagnosis () =
  let m =
    Model.of_diagram ~reliability:ctrl_reliability (cyclic_diagram ())
  in
  match Diagnose.diagnose ~jobs:1 m ~output:"S1" with
  | Error e -> Alcotest.fail e
  | Ok report ->
      Alcotest.(check bool) "terminates with the oracle intact" true
        report.Diagnose.agree;
      Alcotest.(check (list string)) "both controllers explain the sensor"
        [ "ctl1/Stuck"; "ctl2/Stuck" ]
        (List.sort compare
           (List.map
              (fun (e : Diagnose.explanation) -> e.Diagnose.mode.Model.m_key)
              report.Diagnose.candidates));
      Alcotest.(check bool) "the cycle needed re-iteration" true
        (report.Diagnose.stats.Fixpoint.iterations > 3);
      Alcotest.(check int) "one non-trivial SCC + sensor" 2
        report.Diagnose.stats.Fixpoint.sccs

let test_unknown_output () =
  let m = psu_model () in
  match Diagnose.diagnose ~jobs:1 m ~output:"VS9" with
  | Error msg ->
      Alcotest.(check bool) "names the observation points" true
        (let has needle hay =
           let n = String.length needle in
           let rec go i =
             i + n <= String.length hay
             && (String.sub hay i n = needle || go (i + 1))
           in
           go 0
         in
         has "CS1" msg)
  | Ok _ -> Alcotest.fail "expected an error for an unknown output"

(* ---------- redundancy: double-point cut sets ---------- *)

let redundant_pair_arch () =
  let open Ssam in
  let leaf ?functions id =
    Architecture.component ?functions
      ~failure_modes:
        [
          Architecture.failure_mode
            ~meta:(Base.meta ~name:"loss" (id ^ ":fm:loss"))
            ~nature:Architecture.Loss_of_function ~distribution_pct:100.0 ();
        ]
      ~fit:10.0
      ~meta:(Base.meta id)
      ()
  in
  let redundant id =
    leaf
      ~functions:
        [ Architecture.func ~meta:(Base.meta (id ^ ":fn")) Architecture.OneOoTwo ]
      id
  in
  let rel f t =
    Architecture.relationship
      ~meta:(Base.meta (f ^ "->" ^ t))
      ~from_component:f ~to_component:t ()
  in
  Architecture.component ~component_type:Architecture.System
    ~children:[ leaf "IN"; redundant "A"; redundant "B"; leaf "OUT" ]
    ~connections:[ rel "IN" "A"; rel "IN" "B"; rel "A" "OUT"; rel "B" "OUT" ]
    ~meta:(Base.meta "root")
    ()

let test_double_point_cut_sets () =
  let m = Model.of_architecture (redundant_pair_arch ()) in
  match Diagnose.diagnose ~jobs:1 m ~output:"OUT" with
  | Error e -> Alcotest.fail e
  | Ok report ->
      Alcotest.(check (list (list string))) "singles: the non-redundant pair"
        [ [ "IN/loss" ]; [ "OUT/loss" ] ]
        (List.sort compare report.Diagnose.singles);
      Alcotest.(check (list (list string))) "doubles: the redundant legs"
        [ [ "A/loss"; "B/loss" ] ]
        report.Diagnose.doubles

(* The BDD-derived singles/doubles must equal the historical direct
   pair enumeration on every model — the tentpole's differential. *)
let test_cut_set_routes_agree () =
  let check name m ~output =
    match Diagnose.diagnose ~jobs:1 m ~output with
    | Error e -> Alcotest.fail e
    | Ok report ->
        let direct_singles, direct_doubles =
          Oracle.Direct_cut_sets.of_explanations m report.Diagnose.explanations
        in
        Alcotest.(check (list (list string)))
          (name ^ ": BDD singles = direct singles")
          (List.sort compare direct_singles)
          (List.sort compare report.Diagnose.singles);
        Alcotest.(check (list (list string)))
          (name ^ ": BDD doubles = direct doubles")
          (List.sort compare direct_doubles)
          (List.sort compare report.Diagnose.doubles);
        (* The lowered tree exists exactly when something survived. *)
        Alcotest.(check bool) (name ^ ": lowered tree consistent") true
          (Option.is_some
             (Diagnose.lowered_fault_tree m report.Diagnose.explanations)
          = (report.Diagnose.explanations <> []))
  in
  check "psu" (psu_model ()) ~output:"CS1";
  check "redundant pair"
    (Model.of_architecture (redundant_pair_arch ()))
    ~output:"OUT"

(* ---------- integrity propagation ---------- *)

let test_integrity_violations () =
  let open Ssam in
  let situation =
    Hazard.situation
      ~meta:(Base.meta "hz1")
      ~severity:Hazard.S3 ~exposure:Hazard.E4 ~controllability:Hazard.C3 ()
  in
  let hazards = Hazard.package ~meta:(Base.meta "hzp") [ Hazard.Situation situation ] in
  let src =
    Architecture.component
      ~failure_modes:
        [
          Architecture.failure_mode
            ~meta:(Base.meta ~name:"loss" "src:fm:loss")
            ~nature:Architecture.Loss_of_function ~distribution_pct:100.0
            ~hazards:[ "hz1" ] ();
        ]
      ~fit:10.0
      ~meta:(Base.meta "src")
      ()
  in
  let snk =
    Architecture.component ~integrity:Requirement.ASIL_A
      ~meta:(Base.meta "snk")
      ()
  in
  let rel =
    Architecture.relationship
      ~meta:(Base.meta "r")
      ~from_component:"src" ~to_component:"snk" ()
  in
  let pkg =
    Architecture.package
      ~meta:(Base.meta "pkg")
      [
        Architecture.Component src;
        Architecture.Component snk;
        Architecture.Relationship rel;
      ]
  in
  let model =
    Ssam.Model.create ~component_packages:[ pkg ] ~hazard_packages:[ hazards ]
      ~meta:(Base.meta "m")
      ()
  in
  let m = Dataflow.Model.of_package pkg in
  let findings = Passes.integrity_violations ~jobs:1 model m in
  match findings with
  | [ f ] ->
      Alcotest.(check string) "the under-allocated sink" "snk"
        f.Passes.if_component;
      Alcotest.(check bool) "ASIL D demanded" true
        (f.Passes.demanded = Requirement.ASIL_D);
      Alcotest.(check string) "via the citing mode" "src/loss"
        f.Passes.via_mode.Dataflow.Model.m_key
  | fs ->
      Alcotest.fail (Printf.sprintf "expected 1 finding, got %d" (List.length fs))

let suite =
  [
    Alcotest.test_case "fixpoint: cycle terminates" `Quick
      test_fixpoint_cycle_terminates;
    Alcotest.test_case "fixpoint: matches reachability" `Quick
      test_fixpoint_matches_reachability;
    Alcotest.test_case "fixpoint: non-monotone transfer" `Quick
      test_fixpoint_non_monotone_still_terminates;
    Alcotest.test_case "oracle: diamond" `Quick test_diamond_oracle;
    Alcotest.test_case "oracle: grid" `Quick test_grid_oracle;
    Alcotest.test_case "oracle: jobs-deterministic" `Quick
      test_jobs_deterministic;
    QCheck_alcotest.to_alcotest qcheck_oracle;
    Alcotest.test_case "psu: structural candidates" `Quick
      test_psu_structural_candidates;
    Alcotest.test_case "psu: diagnosis == injection FMEA" `Quick
      test_psu_diagnosis_matches_injection;
    Alcotest.test_case "psu: jobs-identical" `Quick test_psu_jobs_identical;
    Alcotest.test_case "cyclic diagram diagnosis" `Quick
      test_cyclic_diagram_diagnosis;
    Alcotest.test_case "unknown output" `Quick test_unknown_output;
    Alcotest.test_case "double-point cut sets" `Quick
      test_double_point_cut_sets;
    Alcotest.test_case "cut-set routes agree" `Quick test_cut_set_routes_agree;
    Alcotest.test_case "integrity propagation" `Quick
      test_integrity_violations;
  ]
