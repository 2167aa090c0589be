(* Tests for the lint subsystem: the rule registry, each pack on seeded
   inputs, and the driver's filtering/ordering/rendering. *)

open Lint

let ids ds = List.map (fun (d : Rule.diagnostic) -> d.Rule.rule_id) ds

let has_rule id ds = List.mem id (ids ds)

let fm ?(dist = 100.0) id =
  Ssam.Architecture.failure_mode
    ~meta:(Ssam.Base.meta id)
    ~nature:Ssam.Architecture.Loss_of_function ~distribution_pct:dist ()

let component ?fit ?integrity ?failure_modes ?children ?connections id =
  Ssam.Architecture.component ?fit ?integrity ?failure_modes ?children
    ?connections
    ~meta:(Ssam.Base.meta id)
    ()

let model_of ?(mbsa = []) components =
  Ssam.Model.create
    ~component_packages:
      [
        Ssam.Architecture.package
          ~meta:(Ssam.Base.meta "pkg")
          (List.map (fun c -> Ssam.Architecture.Component c) components);
      ]
    ~mbsa_packages:mbsa
    ~meta:(Ssam.Base.meta "m")
    ()

(* ---------- registry ---------- *)

let test_catalogue () =
  let rule_ids = List.map (fun (r : Rule.t) -> r.Rule.id) Driver.catalogue in
  Alcotest.(check bool)
    "at least 12 distinct rules" true
    (List.length (List.sort_uniq String.compare rule_ids) >= 12);
  Alcotest.(check int)
    "ids are unique"
    (List.length rule_ids)
    (List.length (List.sort_uniq String.compare rule_ids));
  let categories =
    List.sort_uniq compare
      (List.map (fun (r : Rule.t) -> r.Rule.category) Driver.catalogue)
  in
  Alcotest.(check int) "six packs contribute" 6 (List.length categories);
  Alcotest.(check bool) "lookup is case-insensitive" true
    (Driver.find_rule "ssam003" <> None);
  Alcotest.(check bool) "unknown id" true (Driver.find_rule "NOPE42" = None)

(* ---------- SSAM pack (and the Validate delegation) ---------- *)

let test_ssam_new_rules () =
  (* SSAM009: failure modes with no FIT aggregated. *)
  let no_fit = component ~failure_modes:[ fm "c1:fm" ] "c1" in
  let findings = Ssam.Validate.findings (model_of [ no_fit ]) in
  Alcotest.(check bool) "SSAM009 fires" true
    (List.exists (fun f -> f.Ssam.Validate.f_rule = "SSAM009") findings);
  (* SSAM010: an ASIL target with no allocated requirement... *)
  let asil = component ~integrity:Ssam.Requirement.ASIL_B "c2" in
  let findings = Ssam.Validate.findings (model_of [ asil ]) in
  Alcotest.(check bool) "SSAM010 fires" true
    (List.exists (fun f -> f.Ssam.Validate.f_rule = "SSAM010") findings);
  (* ... silenced by an Allocates trace targeting the component. *)
  let mbsa =
    Ssam.Mbsa.package
      ~traces:
        [
          Ssam.Mbsa.trace_link
            ~meta:(Ssam.Base.meta "t1")
            ~kind:Ssam.Mbsa.Allocates ~source:"sr1" ~target:"c2";
        ]
      ~meta:(Ssam.Base.meta "mbsa")
      ()
  in
  (* The trace's own endpoints must resolve, so give the model the
     requirement too. *)
  let req_pkg =
    Ssam.Requirement.package
      ~meta:(Ssam.Base.meta "reqs")
      [
        Ssam.Requirement.Requirement
          (Ssam.Requirement.requirement
             ~integrity:Ssam.Requirement.ASIL_B
             ~meta:(Ssam.Base.meta "sr1")
             "shall hold");
      ]
  in
  let m =
    Ssam.Model.create
      ~requirement_packages:[ req_pkg ]
      ~component_packages:
        [
          Ssam.Architecture.package
            ~meta:(Ssam.Base.meta "pkg")
            [ Ssam.Architecture.Component asil ];
        ]
      ~mbsa_packages:[ mbsa ]
      ~meta:(Ssam.Base.meta "m")
      ()
  in
  Alcotest.(check bool) "SSAM010 silenced by allocation" false
    (List.exists
       (fun f -> f.Ssam.Validate.f_rule = "SSAM010")
       (Ssam.Validate.findings m))

let test_ssam_unreachable () =
  let root =
    component
      ~children:[ component "a"; component "b"; component "lonely" ]
      ~connections:
        [
          Ssam.Architecture.relationship
            ~meta:(Ssam.Base.meta "r1")
            ~from_component:"a" ~to_component:"b" ();
        ]
      "root"
  in
  let findings = Ssam.Validate.findings (model_of [ root ]) in
  let unreachable =
    List.filter (fun f -> f.Ssam.Validate.f_rule = "SSAM008") findings
  in
  Alcotest.(check (list string)) "only the unwired leaf" [ "lonely" ]
    (List.map (fun f -> f.Ssam.Validate.f_element) unreachable)

let test_is_valid_is_findings () =
  (* Validity is read off the rule-tagged findings: a model is valid
     exactly when none of its findings is an error. *)
  let no_error_finding m =
    List.for_all
      (fun (f : Ssam.Validate.finding) ->
        f.Ssam.Validate.f_severity <> Ssam.Validate.Error)
      (Ssam.Validate.findings m)
  in
  List.iter
    (fun (name, m, valid) ->
      Alcotest.(check bool) (name ^ ": is_valid") valid (Ssam.Validate.is_valid m);
      Alcotest.(check bool) (name ^ ": = no error finding") valid
        (no_error_finding m))
    [
      ("negative FIT", model_of [ component ~fit:(-1.0) "bad" ], false);
      ("single leaf", model_of [ component ~fit:1.0 "ok" ], true);
    ]

let test_ssam_pack_adapts () =
  let input =
    { Input.empty with Input.model = Some (model_of [ component ~fit:(-2.0) "neg" ]) }
  in
  let ds = Driver.run ~jobs:1 input in
  Alcotest.(check bool) "SSAM006 via the pack" true (has_rule "SSAM006" ds);
  let d =
    List.find (fun (d : Rule.diagnostic) -> d.Rule.rule_id = "SSAM006") ds
  in
  Alcotest.(check (option string)) "element carried" (Some "neg") d.Rule.element;
  Alcotest.(check bool) "category" true (d.Rule.d_category = Rule.Ssam_model)

(* ---------- blockdiag pack ---------- *)

let bd ?(connections = []) blocks =
  Blockdiag.Diagram.diagram ~connections ~name:"d" blocks

let eblock id ty =
  Blockdiag.Diagram.block ~ports:Blockdiag.Diagram.two_terminal_ports ~id
    ~block_type:ty ()

let input_of_diagram ?(exclude = []) ?(monitored = []) ?sm d =
  {
    Input.empty with
    Input.diagram = Some ("d.bd", d);
    exclude;
    monitored;
    sm = Option.map (fun s -> (Some "sm.csv", s)) sm;
  }

let run1 input = Driver.run ~jobs:1 input

let test_blk_wiring () =
  let d =
    bd
      ~connections:[ Blockdiag.Diagram.connect ("r1", "a") ("ghost", "a") ]
      [ eblock "r1" "resistor"; eblock "r1" "resistor" ]
  in
  let ds = run1 (input_of_diagram d) in
  Alcotest.(check bool) "BLK001 dangling endpoint" true (has_rule "BLK001" ds);
  Alcotest.(check bool) "BLK003 duplicate id" true (has_rule "BLK003" ds);
  Alcotest.(check bool) "BLK005 unconnected port" true (has_rule "BLK005" ds);
  (* The model derived from the diagram repeats its ids: one duplicate
     block is one finding, not also SSAM001 for the block and its two IO
     nodes. *)
  Alcotest.(check int) "one finding per duplicate block" 1
    (List.length
       (List.filter (fun id -> id = "BLK003" || id = "SSAM001") (ids ds)));
  Alcotest.(check bool) "errors precede warnings" true
    (let sevs =
       List.map (fun (d : Rule.diagnostic) -> Rule.severity_rank d.Rule.d_severity) ds
     in
     List.sort (fun a b -> compare b a) sevs = sevs);
  (* A model the user gave is checked on its own: its duplicates are
     SSAM001. *)
  let ds =
    run1
      {
        (input_of_diagram d) with
        Input.model = Some (model_of [ component "c1"; component "c1" ]);
      }
  in
  Alcotest.(check bool) "SSAM001 on a user model" true (has_rule "SSAM001" ds)

let test_blk_unknown_type_and_port () =
  let d =
    bd
      ~connections:[ Blockdiag.Diagram.connect ("x1", "a") ("x1", "nope") ]
      [ eblock "x1" "flux_capacitor" ]
  in
  let ds = run1 (input_of_diagram d) in
  Alcotest.(check bool) "BLK002 missing port" true (has_rule "BLK002" ds);
  Alcotest.(check bool) "BLK006 unknown type" true (has_rule "BLK006" ds)

let test_blk_monitor_exclude () =
  let d =
    bd
      ~connections:[ Blockdiag.Diagram.connect ("v1", "a") ("cs1", "a") ]
      [ eblock "v1" "vsource"; eblock "cs1" "current_sensor" ]
  in
  let ds = run1 (input_of_diagram ~monitored:[ "nope"; "v1" ] d) in
  let blk007 =
    List.filter (fun (d : Rule.diagnostic) -> d.Rule.rule_id = "BLK007") ds
  in
  Alcotest.(check int) "missing and non-sensor monitors" 2 (List.length blk007);
  let ds = run1 (input_of_diagram ~exclude:[ "ghost" ] d) in
  Alcotest.(check bool) "BLK009 unknown exclusion" true (has_rule "BLK009" ds);
  let ds =
    run1
      (input_of_diagram ~exclude:[ "cs1" ]
         ~sm:
           (Reliability.Sm_model.of_mechanisms
              [
                {
                  Reliability.Sm_model.sm_name = "plausibility check";
                  component_type = "current_sensor";
                  failure_mode = "Reading loss";
                  coverage_pct = 60.0;
                  cost = 0.5;
                };
              ])
         d)
  in
  Alcotest.(check bool) "BLK010 excluded but SM-referenced" true
    (has_rule "BLK010" ds)

(* What the netlist conversion rejects fails every analysis, so it is an
   error (BLK011) quoting the conversion's message: a non-positive value,
   and a two-terminal block of a type the converter does not know. *)
let test_blk_conversion_rejected () =
  let loop blocks =
    bd
      ~connections:
        [
          Blockdiag.Diagram.connect ("v1", "a") ("w1", "a");
          Blockdiag.Diagram.connect ("w1", "b") ("v1", "b");
        ]
      (eblock "v1" "vsource" :: blocks)
  in
  let blk011 d =
    List.filter_map
      (fun (x : Rule.diagnostic) ->
        if x.Rule.rule_id = "BLK011" then Some (x.Rule.d_severity, x.Rule.message)
        else None)
      (run1 (input_of_diagram d))
  in
  let negative =
    Blockdiag.Diagram.block ~ports:Blockdiag.Diagram.two_terminal_ports
      ~id:"w1" ~block_type:"resistor"
      ~parameters:[ ("ohms", Blockdiag.Diagram.P_num (-3.0)) ]
      ()
  in
  Alcotest.(check (list (pair bool string)))
    "non-positive resistance"
    [ (true, "d: Element.make w1: non-positive resistance") ]
    (List.map (fun (sev, m) -> (sev = Rule.Error, m)) (blk011 (loop [ negative ])));
  Alcotest.(check (list (pair bool string)))
    "unknown two-terminal type"
    [ (true, "d: block w1: unsupported electrical block type 'widget'") ]
    (List.map
       (fun (sev, m) -> (sev = Rule.Error, m))
       (blk011 (loop [ eblock "w1" "widget" ])));
  Alcotest.(check int) "a convertible loop" 0
    (List.length (blk011 (loop [ eblock "w1" "resistor" ])))

let test_blk_no_sensor () =
  let d =
    bd
      ~connections:[ Blockdiag.Diagram.connect ("v1", "a") ("r1", "a") ]
      [ eblock "v1" "vsource"; eblock "r1" "resistor" ]
  in
  Alcotest.(check bool) "BLK008 fires" true
    (has_rule "BLK008" (run1 (input_of_diagram d)))

let port name kind = { Blockdiag.Diagram.port_name = name; port_kind = kind }

(* The rule ids of the error findings, sorted and without repeats. *)
let error_ids ds =
  List.sort_uniq String.compare
    (List.filter_map
       (fun (d : Rule.diagnostic) ->
         if d.Rule.d_severity = Rule.Error then Some d.Rule.rule_id else None)
       ds)

(* Each wiring fault of one diagram level gives its own rule: a duplicate
   id, a connection to a missing block, to a missing port, and two
   outputs wired together. *)
let test_blk_wiring_rules () =
  let task_with_two_outputs =
    Blockdiag.Diagram.block ~id:"S" ~block_type:"task"
      ~ports:
        [
          port "out" Blockdiag.Diagram.Out_port;
          port "out2" Blockdiag.Diagram.Out_port;
        ]
      ()
  in
  let d =
    bd
      ~connections:
        [
          Blockdiag.Diagram.connect ("A", "a") ("GHOST", "a");
          Blockdiag.Diagram.connect ("A", "nope") ("A", "b");
          Blockdiag.Diagram.connect ("S", "out") ("S", "out2");
        ]
      [ eblock "A" "resistor"; eblock "A" "resistor"; task_with_two_outputs ]
  in
  let blk_errors =
    List.filter
      (fun (x : Rule.diagnostic) -> x.Rule.d_category = Rule.Block_diagram)
      (run1 (input_of_diagram d))
  in
  Alcotest.(check (list string)) "one rule per fault"
    [ "BLK001"; "BLK002"; "BLK003"; "BLK004" ]
    (error_ids blk_errors)

(* BLK004: signal ports wired output to output or input to input, and a
   conserving (electrical) port wired to a signal port. *)
let test_blk_port_directions () =
  let task =
    Blockdiag.Diagram.block ~id:"T" ~block_type:"task"
      ~ports:
        [
          port "in1" Blockdiag.Diagram.In_port;
          port "in2" Blockdiag.Diagram.In_port;
          port "out1" Blockdiag.Diagram.Out_port;
          port "out2" Blockdiag.Diagram.Out_port;
        ]
      ()
  in
  let blk004 from_ to_ =
    List.filter_map
      (fun (x : Rule.diagnostic) ->
        if x.Rule.rule_id = "BLK004" then Some x.Rule.message else None)
      (run1
         (input_of_diagram
            (bd
               ~connections:[ Blockdiag.Diagram.connect from_ to_ ]
               [ task; eblock "R" "resistor" ])))
  in
  Alcotest.(check (list string)) "two outputs"
    [ "d: two outputs wired together (T.out1 -> T.out2)" ]
    (blk004 ("T", "out1") ("T", "out2"));
  Alcotest.(check (list string)) "two inputs"
    [ "d: two inputs wired together (T.in1 -> T.in2)" ]
    (blk004 ("T", "in1") ("T", "in2"));
  Alcotest.(check (list string)) "conserving to signal"
    [ "d: conserving port wired to a signal port (R.a -> T.in1)" ]
    (blk004 ("R", "a") ("T", "in1"));
  Alcotest.(check (list string)) "output to input is fine" []
    (blk004 ("T", "out1") ("T", "in1"))

(* ---------- reliability pack ---------- *)

let entry ?(fit = 10.0) ?(modes = [ ("Open", 100.0) ]) ty =
  {
    Reliability.Reliability_model.component_type = ty;
    fit;
    failure_modes =
      List.map
        (fun (name, dist) ->
          {
            Reliability.Reliability_model.fm_name = name;
            distribution_pct = dist;
            fault = None;
            loss_of_function = true;
          })
        modes;
  }

let test_rel_tables () =
  let rel =
    Reliability.Reliability_model.of_entries
      [
        entry ~modes:[ ("Open", 30.0); ("Short", 30.0) ] "diode";
        entry ~fit:0.0 "relay";
        entry ~modes:[ ("Open", 120.0); ("open", -20.0) ] "fuse";
      ]
  in
  let input =
    { Input.empty with Input.reliability = Some (Some "rel.csv", rel) }
  in
  let ds = run1 input in
  List.iter
    (fun rule ->
      Alcotest.(check bool) (rule ^ " fires") true (has_rule rule ds))
    [ "REL001"; "REL002"; "REL004"; "REL005" ];
  let file =
    (List.find (fun (d : Rule.diagnostic) -> d.Rule.rule_id = "REL002") ds)
      .Rule.file
  in
  Alcotest.(check (option string)) "file carried" (Some "rel.csv") file

let test_rel_sm_cross () =
  let rel = Reliability.Reliability_model.of_entries [ entry "diode" ] in
  let sm ty mode cov cost =
    {
      Reliability.Sm_model.sm_name = "m";
      component_type = ty;
      failure_mode = mode;
      coverage_pct = cov;
      cost;
    }
  in
  let sm_model =
    Reliability.Sm_model.of_mechanisms
      [
        sm "diode" "Burnout" 90.0 1.0;
        sm "diode" "Open" 150.0 (-1.0);
        sm "pll" "Jitter" 99.0 1.0;
      ]
  in
  let input =
    {
      Input.empty with
      Input.reliability = Some (Some "rel.csv", rel);
      sm = Some (Some "sm.csv", sm_model);
    }
  in
  let ds = run1 input in
  List.iter
    (fun rule ->
      Alcotest.(check bool) (rule ^ " fires") true (has_rule rule ds))
    [ "REL006"; "REL007"; "REL008"; "REL009" ];
  (* The built-in catalogue (no path) is not cross-checked. *)
  let ds =
    run1
      {
        Input.empty with
        Input.reliability = Some (Some "rel.csv", rel);
        sm = Some (None, sm_model);
      }
  in
  Alcotest.(check bool) "default catalogue not linted" false
    (has_rule "REL009" ds)

let rel_input rel =
  { Input.empty with Input.reliability = Some (Some "rel.csv", rel) }

(* One entry with a zero FIT, two failure modes whose names differ only
   in case, and distributions summing to 80%. *)
let test_rel_entry_rules () =
  let bad =
    Reliability.Reliability_model.of_entries
      [ entry ~fit:0.0 ~modes:[ ("A", 40.0); ("a", 40.0) ] "thing" ]
  in
  Alcotest.(check (list string)) "sum, duplicate names, zero FIT"
    [ "REL001"; "REL004"; "REL005" ]
    (List.sort_uniq String.compare (ids (run1 (rel_input bad))));
  Alcotest.(check (list string)) "Table II is clean" []
    (ids (run1 (rel_input Reliability.Reliability_model.table_ii)))

let test_sm_catalogue_rules () =
  let sm_input sm = { Input.empty with Input.sm = Some (Some "sm.csv", sm) } in
  let bad =
    Reliability.Sm_model.of_mechanisms
      [
        {
          Reliability.Sm_model.sm_name = "x";
          component_type = "y";
          failure_mode = "z";
          coverage_pct = 150.0;
          cost = -1.0;
        };
      ]
  in
  Alcotest.(check (list string)) "coverage and cost" [ "REL006"; "REL007" ]
    (ids (run1 (sm_input bad)));
  Alcotest.(check (list string)) "extended catalogue is clean" []
    (ids (run1 (sm_input Reliability.Sm_model.extended_catalogue)))

(* A NaN distribution, coverage or cost in a model built in memory fails
   the range rules as an out-of-range number does. *)
let test_rel_sm_nan () =
  let rel =
    Reliability.Reliability_model.of_entries
      [ entry ~modes:[ ("Open", Float.nan) ] "diode" ]
  in
  let sm =
    Reliability.Sm_model.of_mechanisms
      [
        {
          Reliability.Sm_model.sm_name = "m";
          component_type = "diode";
          failure_mode = "Open";
          coverage_pct = Float.nan;
          cost = Float.nan;
        };
      ]
  in
  let ds =
    run1
      { (rel_input rel) with Input.sm = Some (Some "sm.csv", sm) }
  in
  List.iter
    (fun rule ->
      Alcotest.(check bool) (rule ^ " fires on NaN") true (has_rule rule ds))
    [ "REL002"; "REL006"; "REL007" ]

(* ---------- query pack ---------- *)

let test_query_rules () =
  let input qsrc = { Input.empty with Input.queries = [ ("q.eol", qsrc) ] } in
  let rule_of qsrc =
    match run1 (input qsrc) with
    | [ d ] -> d.Rule.rule_id
    | ds -> Alcotest.fail (Printf.sprintf "expected 1 diagnostic, got %d" (List.length ds))
  in
  Alcotest.(check string) "parse" "QRY001" (rule_of "1 +");
  Alcotest.(check string) "unknown ident" "QRY002" (rule_of "return nope;");
  Alcotest.(check string) "unknown method" "QRY003" (rule_of "'a'.shout()");
  Alcotest.(check string) "arity" "QRY004" (rule_of "'a'.trim(1)");
  Alcotest.(check string) "type mismatch" "QRY005" (rule_of "return true - 1;");
  (* Spans survive into the diagnostic. *)
  match run1 (input "var x := 1;\nreturn x.trim();") with
  | [ d ] ->
      Alcotest.(check (option string)) "file" (Some "q.eol") d.Rule.file;
      Alcotest.(check bool) "span line 2" true
        (match d.Rule.span with Some s -> s.Rule.line = 2 | None -> false)
  | ds ->
      Alcotest.fail (Printf.sprintf "expected 1 diagnostic, got %d" (List.length ds))

(* ---------- dataflow pack ---------- *)

(* r1 feeds the sensor; r2 is marooned (latent mode); cs2 watches
   nothing (silent output). *)
let dfa_input ?(exclude = []) () =
  let d =
    bd
      ~connections:[ Blockdiag.Diagram.connect ("r1", "a") ("cs1", "a") ]
      [
        eblock "r1" "resistor";
        eblock "r2" "resistor";
        eblock "cs1" "current_sensor";
        eblock "cs2" "current_sensor";
      ]
  in
  {
    (input_of_diagram ~exclude d) with
    Input.reliability =
      Some
        ( Some "rel.csv",
          Reliability.Reliability_model.of_entries [ entry "resistor" ] );
  }

let test_dfa_rules () =
  let ds = run1 (dfa_input ~exclude:[ "r1" ] ()) in
  Alcotest.(check bool) "DFA001 latent mode" true (has_rule "DFA001" ds);
  Alcotest.(check bool) "DFA002 silent output" true (has_rule "DFA002" ds);
  Alcotest.(check bool) "DFA008 excluded still explains" true
    (has_rule "DFA008" ds);
  let latent =
    List.find (fun (d : Rule.diagnostic) -> d.Rule.rule_id = "DFA001") ds
  in
  Alcotest.(check (option string)) "element is the marooned block"
    (Some "r2") latent.Rule.element;
  Alcotest.(check (option string)) "file carried" (Some "d.bd")
    latent.Rule.file;
  (* The oracle holds on every well-formed model, so DFA003 never fires
     here. *)
  Alcotest.(check bool) "DFA003 silent" false (has_rule "DFA003" ds)

let test_dfa_category_filter () =
  let ds =
    Driver.run ~jobs:1 ~categories:[ Rule.Dataflow ] (dfa_input ())
  in
  Alcotest.(check bool) "only dataflow findings" true
    (ds <> []
    && List.for_all
         (fun (d : Rule.diagnostic) -> d.Rule.d_category = Rule.Dataflow)
         ds);
  List.iter
    (fun (spelling, expected) ->
      Alcotest.(check bool)
        ("category_of_string " ^ spelling)
        true
        (Rule.category_of_string spelling = expected))
    [
      ("dfa", Some Rule.Dataflow);
      ("dataflow", Some Rule.Dataflow);
      ("BLK", Some Rule.Block_diagram);
      ("qry", Some Rule.Query);
      ("nope", None);
    ]

let test_dfa_parallel_deterministic () =
  let input = dfa_input ~exclude:[ "r1" ] () in
  let seq = Driver.run ~jobs:1 input in
  let par = Driver.run ~jobs:4 input in
  Alcotest.(check bool) "DFA findings identical at jobs 1 and 4" true
    (List.for_all2 Rule.equal_diagnostic seq par)

let test_sarif_rule_metadata () =
  let ds = run1 (dfa_input ()) in
  let json = Driver.to_json ds in
  let member_exn k j = Option.get (Modelio.Json.member k j) in
  let run = List.hd (Option.get (Modelio.Json.to_list (member_exn "runs" json))) in
  let rules =
    member_exn "tool" run |> member_exn "driver" |> member_exn "rules"
    |> Modelio.Json.to_list |> Option.get
  in
  Alcotest.(check bool) "every rule has name + helpUri + category" true
    (rules <> []
    && List.for_all
         (fun r ->
           Modelio.Json.member "name" r <> None
           && (match
                 Option.bind (Modelio.Json.member "helpUri" r)
                   Modelio.Json.to_str
               with
              | Some uri ->
                  String.length uri > String.length "DESIGN.md#"
                  && String.sub uri 0 10 = "DESIGN.md#"
              | None -> false)
           && Modelio.Json.member "category" (member_exn "properties" r)
              <> None)
         rules);
  let dfa_listed =
    List.exists
      (fun r ->
        Option.bind (Modelio.Json.member "id" r) Modelio.Json.to_str
        = Some "DFA001")
      rules
  in
  Alcotest.(check bool) "DFA001 in the descriptor array" true dfa_listed

(* ---------- FTA pack ---------- *)

let rel f t =
  Ssam.Architecture.relationship
    ~meta:(Ssam.Base.meta (f ^ "->" ^ t))
    ~from_component:f ~to_component:t ()

(* root → A → {B, C} → D: A and D are single points, the diamond makes
   A's loss event repeat in the lowered tree.  A carries ASIL D; C has
   no FIT in an otherwise quantified tree. *)
let fta_fixture_root () =
  let leaf ?fit ?integrity id =
    component ?fit ?integrity ~failure_modes:[ fm (id ^ ":fm:loss") ] id
  in
  Ssam.Architecture.component ~component_type:Ssam.Architecture.System
    ~children:
      [
        leaf ~fit:10.0 ~integrity:Ssam.Requirement.ASIL_D "A";
        leaf ~fit:10.0 "B";
        leaf "C";
        leaf ~fit:10.0 "D";
      ]
    ~connections:
      [
        rel "root" "A"; rel "A" "B"; rel "A" "C"; rel "B" "D"; rel "C" "D";
        rel "D" "root";
      ]
    ~meta:(Ssam.Base.meta "root")
    ()

let test_fta_rules () =
  let ds = Fta_pack.check_component ~file:"m.ssam" (fta_fixture_root ()) in
  Alcotest.(check bool) "FTA002 rate-less event" true (has_rule "FTA002" ds);
  Alcotest.(check bool) "FTA004 high-integrity single point" true
    (has_rule "FTA004" ds);
  Alcotest.(check bool) "FTA005 repeated event" true (has_rule "FTA005" ds);
  let fta004 =
    List.find (fun (d : Rule.diagnostic) -> d.Rule.rule_id = "FTA004") ds
  in
  Alcotest.(check (option string)) "names the ASIL D component" (Some "A")
    fta004.Rule.element;
  Alcotest.(check (option string)) "file carried" (Some "m.ssam")
    fta004.Rule.file;
  (* D is also a single point but carries no integrity allocation. *)
  Alcotest.(check int) "exactly one FTA004" 1
    (List.length
       (List.filter (fun (d : Rule.diagnostic) -> d.Rule.rule_id = "FTA004") ds));
  (* Pathless composite: FTA001. *)
  let lonely =
    Ssam.Architecture.component ~component_type:Ssam.Architecture.System
      ~children:[] ~meta:(Ssam.Base.meta "empty") ()
  in
  Alcotest.(check bool) "FTA001 on a pathless composite" true
    (has_rule "FTA001" (Fta_pack.check_component lonely))

let test_fta_bad_vote () =
  (* A 3-vote fed by only two distinct events: FTA003. *)
  let e id = Fta.Fault_tree.basic ~rate_fit:5.0 id in
  let tree =
    Fta.Fault_tree.koon "v" ~k:3 [ e "x"; e "y"; e "x" ]
  in
  let ds = Fta_pack.check_tree ~owner:"root" tree in
  Alcotest.(check bool) "FTA003 fires" true (has_rule "FTA003" ds);
  let d = List.find (fun (d : Rule.diagnostic) -> d.Rule.rule_id = "FTA003") ds in
  Alcotest.(check (option string)) "names the gate" (Some "v") d.Rule.element;
  (* An honest vote over distinct events stays silent. *)
  Alcotest.(check bool) "honest vote silent" false
    (has_rule "FTA003"
       (Fta_pack.check_tree ~owner:"root"
          (Fta.Fault_tree.koon "v" ~k:2 [ e "x"; e "y"; e "z" ])))

let test_fta_category_filter () =
  let model =
    Ssam.Model.create
      ~component_packages:
        [
          Ssam.Architecture.package
            ~meta:(Ssam.Base.meta "pkg")
            [ Ssam.Architecture.Component (fta_fixture_root ()) ];
        ]
      ~meta:(Ssam.Base.meta "m")
      ()
  in
  let input = { Input.empty with Input.model = Some model } in
  let ds = Driver.run ~jobs:1 ~categories:[ Rule.Fault_tree ] input in
  Alcotest.(check bool) "only fta findings, non-empty" true
    (ds <> []
    && List.for_all
         (fun (d : Rule.diagnostic) -> d.Rule.d_category = Rule.Fault_tree)
         ds);
  Alcotest.(check bool) "fta spelling accepted" true
    (Rule.category_of_string "fta" = Some Rule.Fault_tree
    && Rule.category_of_string "FTA" = Some Rule.Fault_tree)

(* ---------- driver filters and rendering ---------- *)

let mixed_input =
  let d =
    bd
      ~connections:[ Blockdiag.Diagram.connect ("r1", "a") ("ghost", "a") ]
      [ eblock "r1" "resistor" ]
  in
  { (input_of_diagram d) with Input.queries = [ ("q", "'a'.trim(1)") ] }

let test_driver_filters () =
  let ds = run1 mixed_input in
  Alcotest.(check bool) "errors found" true (Driver.has_errors ds);
  let only_blk = Driver.run ~jobs:1 ~rules:[ "blk001" ] mixed_input in
  Alcotest.(check bool) "rule filter keeps BLK001" true
    (List.for_all (fun (d : Rule.diagnostic) -> d.Rule.rule_id = "BLK001") only_blk
    && only_blk <> []);
  let errors_only =
    Driver.run ~jobs:1 ~min_severity:Rule.Error mixed_input
  in
  Alcotest.(check bool) "severity filter" true
    (List.for_all
       (fun (d : Rule.diagnostic) -> d.Rule.d_severity = Rule.Error)
       errors_only
    && errors_only <> [])

let test_driver_parallel_deterministic () =
  let seq = Driver.run ~jobs:1 mixed_input in
  let par = Driver.run ~jobs:4 mixed_input in
  Alcotest.(check bool) "same diagnostics in the same order" true
    (List.for_all2 Rule.equal_diagnostic seq par)

let test_rendering () =
  let ds = run1 mixed_input in
  let text = Driver.to_text ds in
  Alcotest.(check bool) "text mentions a rule id" true
    (let has needle hay =
       let rec go i =
         i + String.length needle <= String.length hay
         && (String.sub hay i (String.length needle) = needle || go (i + 1))
       in
       go 0
     in
     has "BLK001" text && has "error" text);
  let json = Driver.to_json ds in
  let run =
    List.hd
      (Option.get
         (Modelio.Json.to_list
            (Option.get (Modelio.Json.member "runs" json))))
  in
  let results =
    Option.get
      (Modelio.Json.to_list (Option.get (Modelio.Json.member "results" run)))
  in
  Alcotest.(check int) "one result per diagnostic" (List.length ds)
    (List.length results);
  Alcotest.(check (option string)) "sarif version" (Some "2.1.0")
    (Option.bind (Modelio.Json.member "version" json) Modelio.Json.to_str);
  let empty = Driver.to_text [] in
  Alcotest.(check string) "empty report" "no findings\n" empty

let suite =
  [
    Alcotest.test_case "catalogue" `Quick test_catalogue;
    Alcotest.test_case "ssam new rules" `Quick test_ssam_new_rules;
    Alcotest.test_case "ssam unreachable" `Quick test_ssam_unreachable;
    Alcotest.test_case "is_valid delegates to findings" `Quick
      test_is_valid_is_findings;
    Alcotest.test_case "ssam pack adapts" `Quick test_ssam_pack_adapts;
    Alcotest.test_case "blk wiring" `Quick test_blk_wiring;
    Alcotest.test_case "blk unknown type/port" `Quick test_blk_unknown_type_and_port;
    Alcotest.test_case "blk monitor/exclude" `Quick test_blk_monitor_exclude;
    Alcotest.test_case "blk no sensor" `Quick test_blk_no_sensor;
    Alcotest.test_case "blk conversion rejected" `Quick
      test_blk_conversion_rejected;
    Alcotest.test_case "blk wiring rules" `Quick test_blk_wiring_rules;
    Alcotest.test_case "blk port directions" `Quick test_blk_port_directions;
    Alcotest.test_case "rel tables" `Quick test_rel_tables;
    Alcotest.test_case "rel/sm cross-checks" `Quick test_rel_sm_cross;
    Alcotest.test_case "rel entry rules" `Quick test_rel_entry_rules;
    Alcotest.test_case "sm catalogue rules" `Quick test_sm_catalogue_rules;
    Alcotest.test_case "rel/sm NaN" `Quick test_rel_sm_nan;
    Alcotest.test_case "query rules" `Quick test_query_rules;
    Alcotest.test_case "dfa rules" `Quick test_dfa_rules;
    Alcotest.test_case "dfa category filter" `Quick test_dfa_category_filter;
    Alcotest.test_case "dfa parallel deterministic" `Quick
      test_dfa_parallel_deterministic;
    Alcotest.test_case "fta rules" `Quick test_fta_rules;
    Alcotest.test_case "fta bad vote" `Quick test_fta_bad_vote;
    Alcotest.test_case "fta category filter" `Quick test_fta_category_filter;
    Alcotest.test_case "sarif rule metadata" `Quick test_sarif_rule_metadata;
    Alcotest.test_case "driver filters" `Quick test_driver_filters;
    Alcotest.test_case "parallel deterministic" `Quick test_driver_parallel_deterministic;
    Alcotest.test_case "rendering" `Quick test_rendering;
  ]
