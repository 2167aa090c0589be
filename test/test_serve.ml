(* Tests for the `same serve` daemon: wire protocol round-trips,
   content-addressed fingerprints, single-flight coalescing and the full
   socket path — one warm engine serving concurrent clients. *)

let tmp_socket () =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "same-test-%d-%d.sock" (Unix.getpid ()) (Random.int 100000))

let system_b_texts () =
  let subject = Fixtures.Systems.system_b in
  let path = Filename.temp_file "serve-test" ".bd" in
  Blockdiag.Text_format.write_file path subject.Fixtures.Systems.diagram;
  let diagram = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  let reliability m =
    match
      (Reliability.Reliability_model.to_spreadsheet m).Modelio.Spreadsheet.sheets
    with
    | { Modelio.Spreadsheet.table; _ } :: _ ->
        Modelio.Csv.to_string (table.Modelio.Csv.header :: table.Modelio.Csv.rows)
    | [] -> ""
  in
  (diagram, reliability subject.Fixtures.Systems.reliability,
   subject.Fixtures.Systems.reliability, reliability)

(* ---------- protocol ---------- *)

let test_protocol_roundtrip () =
  let requests =
    [
      Serve.Protocol.Ping;
      Serve.Protocol.Stats;
      Serve.Protocol.Shutdown;
      Serve.Protocol.Analyse
        {
          Serve.Protocol.a_analysis = Serve.Protocol.Fmea;
          a_diagram = "block A {}\n";
          a_reliability = Some "type,fit\nmcu,100\n";
          a_sm = None;
          a_params = [ ("exclude", "DC1"); ("monitored", "CS1,CS2") ];
        };
      Serve.Protocol.Open_session
        {
          o_diagram = "block A {}\n";
          o_reliability = None;
          o_params = [ ("exclude", "X") ];
        };
      Serve.Protocol.Edit
        {
          e_session = "s1";
          e_diagram = None;
          e_reliability = Some "type,fit\nmcu,125\n";
        };
      Serve.Protocol.Close_session "s1";
    ]
  in
  List.iter
    (fun req ->
      let json = Serve.Protocol.request_to_json req in
      match Serve.Protocol.request_of_json json with
      | Ok req' ->
          Alcotest.(check bool) "round-trips" true (req = req')
      | Error m -> Alcotest.fail ("decode failed: " ^ m))
    requests

let test_protocol_framing_rejects_newline () =
  let buf = Buffer.create 16 in
  let oc = open_out "/dev/null" in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  ignore buf;
  match Serve.Protocol.write_frame oc "a\nb" with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "embedded newline accepted"

let test_fingerprint_canonical () =
  let base params =
    {
      Serve.Protocol.a_analysis = Serve.Protocol.Fmea;
      a_diagram = "block A {}\n";
      a_reliability = None;
      a_sm = None;
      a_params = params;
    }
  in
  let fp a = Engine.Fingerprint.to_hex (Serve.Protocol.fingerprint a) in
  (* Parameter order is canonicalised away. *)
  Alcotest.(check string)
    "order-insensitive"
    (fp (base [ ("a", "1"); ("b", "2") ]))
    (fp (base [ ("b", "2"); ("a", "1") ]));
  (* Every input distinguishes. *)
  Alcotest.(check bool)
    "params distinguish" false
    (fp (base [ ("a", "1") ]) = fp (base [ ("a", "2") ]));
  Alcotest.(check bool)
    "kind distinguishes" false
    (fp (base [])
    = fp { (base []) with Serve.Protocol.a_analysis = Serve.Protocol.Fta });
  Alcotest.(check bool)
    "model distinguishes" false
    (fp (base [])
    = fp { (base []) with Serve.Protocol.a_diagram = "block B {}\n" })

(* ---------- single-flight ---------- *)

let test_singleflight_coalesces () =
  let flight = Serve.Singleflight.create () in
  let computations = Atomic.make 0 in
  let barrier = Atomic.make 0 in
  let n = 8 in
  let results = Array.make n (0, Serve.Singleflight.Led) in
  let threads =
    List.init n (fun i ->
        Thread.create
          (fun () ->
            Atomic.incr barrier;
            (* Spin until everyone is launched so followers really do
               arrive while the leader is inside the computation. *)
            while Atomic.get barrier < n do Thread.yield () done;
            results.(i) <-
              Serve.Singleflight.run flight ~key:"k" (fun () ->
                  Atomic.incr computations;
                  Thread.delay 0.05;
                  42))
          ())
  in
  List.iter Thread.join threads;
  let leaders =
    Array.fold_left
      (fun acc (_, o) -> if o = Serve.Singleflight.Led then acc + 1 else acc)
      0 results
  in
  Array.iter (fun (v, _) -> Alcotest.(check int) "value shared" 42 v) results;
  (* Stragglers that miss the in-flight window each lead their own run,
     but concurrent arrivals must coalesce: strictly fewer computations
     than callers, and the leader count matches the computation count. *)
  Alcotest.(check int) "one leader per computation" (Atomic.get computations) leaders;
  Alcotest.(check bool)
    (Printf.sprintf "coalesced (%d computations for %d callers)"
       (Atomic.get computations) n)
    true
    (Atomic.get computations < n);
  Alcotest.(check int) "nothing left in flight" 0 (Serve.Singleflight.in_flight flight)

let test_singleflight_distinct_keys_do_not_coalesce () =
  let flight = Serve.Singleflight.create () in
  let v1, o1 = Serve.Singleflight.run flight ~key:"a" (fun () -> 1) in
  let v2, o2 = Serve.Singleflight.run flight ~key:"b" (fun () -> 2) in
  Alcotest.(check (pair int int)) "values" (1, 2) (v1, v2);
  Alcotest.(check bool) "both led" true
    (o1 = Serve.Singleflight.Led && o2 = Serve.Singleflight.Led)

(* ---------- end-to-end over the socket ---------- *)

let with_server f =
  let socket = tmp_socket () in
  let server =
    Serve.Server.start
      { Serve.Server.socket_path = socket; cache_dir = None; jobs = 2 }
  in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.stop server;
      Serve.Server.wait server;
      if Sys.file_exists socket then Sys.remove socket)
    (fun () -> f server socket)

let rpc client req =
  match Serve.Client.rpc client req with
  | Ok json -> json
  | Error m -> Alcotest.fail ("rpc failed: " ^ m)

let member_num name json =
  match Modelio.Json.(Option.bind (member name json) to_float) with
  | Some n -> int_of_float n
  | None -> Alcotest.fail (Printf.sprintf "response has no %S" name)

let member_str name json =
  match Modelio.Json.(Option.bind (member name json) to_str) with
  | Some s -> s
  | None -> Alcotest.fail (Printf.sprintf "response has no %S" name)

let test_server_ping_and_stats () =
  with_server @@ fun _server socket ->
  match Serve.Client.connect socket with
  | Error m -> Alcotest.fail m
  | Ok client ->
      Fun.protect ~finally:(fun () -> Serve.Client.close client) @@ fun () ->
      let pong = rpc client Serve.Protocol.Ping in
      Alcotest.(check bool) "pong" true
        (Modelio.Json.(Option.bind (member "pong" pong) to_bool) = Some true);
      let stats = rpc client Serve.Protocol.Stats in
      Alcotest.(check bool) "requests counted" true (member_num "requests" stats >= 1)

let test_server_analyse_and_cache () =
  let diagram, reliability, _, _ = system_b_texts () in
  let request =
    Serve.Protocol.Analyse
      {
        Serve.Protocol.a_analysis = Serve.Protocol.Fmea;
        a_diagram = diagram;
        a_reliability = Some reliability;
        a_sm = None;
        a_params = [ ("exclude", "DC1,BAT1"); ("monitored", "CS1,CS2,VS1") ];
      }
  in
  with_server @@ fun server socket ->
  match Serve.Client.connect socket with
  | Error m -> Alcotest.fail m
  | Ok client ->
      Fun.protect ~finally:(fun () -> Serve.Client.close client) @@ fun () ->
      let first = rpc client request in
      Alcotest.(check int) "exit 0" 0 (member_num "exit" first);
      Alcotest.(check bool) "has rows" true
        (String.length (member_str "output" first) > 0);
      let second = rpc client request in
      (* Identical request: served from the content-addressed cache,
         byte-identical output, no new computation. *)
      Alcotest.(check string) "bit-identical replay"
        (member_str "output" first) (member_str "output" second);
      let stats = Serve.Server.stats server in
      Alcotest.(check int) "one computation" 1 stats.Serve.Server.analyses_computed;
      Alcotest.(check int) "one cache hit" 1 stats.Serve.Server.analyses_cached

let test_server_coalesces_concurrent () =
  let diagram, reliability, _, _ = system_b_texts () in
  let request =
    Serve.Protocol.Analyse
      {
        Serve.Protocol.a_analysis = Serve.Protocol.Assess;
        a_diagram = diagram;
        a_reliability = Some reliability;
        a_sm = None;
        a_params = [ ("seed", "7"); ("trials", "200000") ];
      }
  in
  with_server @@ fun server socket ->
  let n = 4 in
  let outputs = Array.make n "" in
  let threads =
    List.init n (fun i ->
        Thread.create
          (fun () ->
            match Serve.Client.one_shot ~socket request with
            | Ok json -> outputs.(i) <- member_str "output" json
            | Error m -> outputs.(i) <- "error: " ^ m)
          ())
  in
  List.iter Thread.join threads;
  let stats = Serve.Server.stats server in
  let distinct = List.sort_uniq compare (Array.to_list outputs) in
  Alcotest.(check int) "all replies identical" 1 (List.length distinct);
  Alcotest.(check int) "single solve" 1 stats.Serve.Server.analyses_computed;
  Alcotest.(check int) "followers coalesced or cached" (n - 1)
    (stats.Serve.Server.analyses_coalesced + stats.Serve.Server.analyses_cached)

(* `auto` and `bdd` are synonyms for the fta engine; any other value —
   a typo, or the retired "mocus" — is an error reply, not a silent
   default. *)
let test_server_fta_engine_param () =
  let diagram =
    In_channel.with_open_bin "../examples/models/psu.bd" In_channel.input_all
  in
  let fta engine =
    Serve.Protocol.Analyse
      {
        Serve.Protocol.a_analysis = Serve.Protocol.Fta;
        a_diagram = diagram;
        a_reliability = None;
        a_sm = None;
        a_params =
          (match engine with None -> [] | Some e -> [ ("engine", e) ]);
      }
  in
  with_server @@ fun _server socket ->
  match Serve.Client.connect socket with
  | Error m -> Alcotest.fail m
  | Ok client ->
      Fun.protect ~finally:(fun () -> Serve.Client.close client) @@ fun () ->
      let default = rpc client (fta None) in
      Alcotest.(check int) "default exit 0" 0 (member_num "exit" default);
      List.iter
        (fun e ->
          let reply = rpc client (fta (Some e)) in
          Alcotest.(check int) (e ^ " exit 0") 0 (member_num "exit" reply);
          Alcotest.(check string) (e ^ " = default")
            (member_str "output" default) (member_str "output" reply))
        [ ""; "auto"; "bdd" ];
      List.iter
        (fun e ->
          let reply = rpc client (fta (Some e)) in
          Alcotest.(check int) (e ^ " exit 1") 1 (member_num "exit" reply);
          Alcotest.(check string) (e ^ " rejected")
            (Printf.sprintf "error: unknown engine %S (expected auto or bdd)\n" e)
            (member_str "output" reply))
        [ "mocus"; "bdd " ]

(* Assessment budgets are validated where the CLI's are, in
   [Assess.Mc.run]: a bad budget is an error reply, while an empty
   parameter (how the CLI sends an absent flag) still means absent. *)
let test_server_assess_budgets () =
  let diagram =
    In_channel.with_open_bin "../examples/models/psu.bd" In_channel.input_all
  in
  let assess params =
    Serve.Protocol.Analyse
      {
        Serve.Protocol.a_analysis = Serve.Protocol.Assess;
        a_diagram = diagram;
        a_reliability = None;
        a_sm = None;
        a_params = params;
      }
  in
  with_server @@ fun _server socket ->
  match Serve.Client.connect socket with
  | Error m -> Alcotest.fail m
  | Ok client ->
      Fun.protect ~finally:(fun () -> Serve.Client.close client) @@ fun () ->
      let ok =
        rpc client (assess [ ("trials", "8064"); ("rel_precision", "") ])
      in
      Alcotest.(check int) "empty rel_precision is absent" 0
        (member_num "exit" ok);
      List.iter
        (fun (params, message) ->
          let reply = rpc client (assess params) in
          Alcotest.(check int) (message ^ ": exit 1") 1
            (member_num "exit" reply);
          Alcotest.(check string) message
            ("error: assess: " ^ message ^ "\n")
            (member_str "output" reply))
        [
          ([ ("trials", "0") ], "trials must be positive (got 0)");
          ( [ ("trials", ""); ("rel_precision", "0") ],
            "relative precision must be positive (got 0)" );
          ( [ ("trials", "8064"); ("rel_precision", "0.1") ],
            "a fixed trial budget (8064) and a relative precision (0.1) are \
             mutually exclusive" );
        ]

(* One command layer: for each analysis kind, a success and an error
   case.  The CLI's stderr ^ stdout and exit code equal the daemon's
   reply for the same models and wire parameters; assess is compared
   without the Mtrials/s and elapsed time (text) or the elapsed_s and
   trials_per_sec keys (JSON) that only the CLI prints. *)
let test_server_equals_cli_every_kind () =
  match Test_cli.binary with
  | None -> Alcotest.skip ()
  | Some bin ->
      let psu = "../examples/models/psu.bd" in
      let write name text =
        let path = Filename.temp_file name ".bd" in
        Out_channel.with_open_bin path (fun oc -> output_string oc text);
        path
      in
      (* no input-output path: fta and the fta route cannot lower it *)
      let lonely =
        write "lonely"
          "diagram lonely {\n  block DC1 : vsource { volts = 5; }\n  block \
           LD1 : load { ohms = 10; }\n}\n"
      in
      (* two sources in parallel: the golden solve is singular *)
      let clash =
        write "clash"
          "diagram clash {\n  block DC1 : vsource { volts = 5; }\n  block \
           DC2 : vsource { volts = 3; }\n  block GND1 : ground ports \
           (conserving a);\n  connect DC1.a -> DC2.a;\n  connect DC1.b -> \
           GND1.a;\n  connect DC2.b -> GND1.a;\n}\n"
      in
      let out = Filename.temp_file "serve-cli" ".out" in
      let err = Filename.temp_file "serve-cli" ".err" in
      Fun.protect
        ~finally:(fun () -> List.iter Sys.remove [ lonely; clash; out; err ])
      @@ fun () ->
      let strip_wall_clock text =
        String.split_on_char '\n' text
        |> List.filter (fun line ->
               not
                 (List.exists
                    (fun prefix ->
                      String.starts_with ~prefix (String.trim line))
                    [ {|"elapsed_s":|}; {|"trials_per_sec":|} ]))
        |> List.map (fun line ->
               try
                 Scanf.sscanf line "trials: %d  (%_f Mtrials/s, %_f s, %d \
                                    instructions)%!"
                   (Printf.sprintf "trials: %d  (%d instructions)")
               with Scanf.Scan_failure _ | End_of_file | Failure _ -> line)
        |> String.concat "\n"
      in
      with_server @@ fun _server socket ->
      List.iter
        (fun (analysis, design, args, params) ->
          let kind = Serve.Protocol.analysis_to_string analysis in
          let label = Printf.sprintf "%s %s %s" kind design args in
          let code =
            Sys.command
              (Printf.sprintf "%s %s %s %s > %s 2> %s" bin kind design args
                 (Filename.quote out) (Filename.quote err))
          in
          let cli =
            strip_wall_clock (Test_cli.read_file err ^ Test_cli.read_file out)
          in
          let request =
            Serve.Protocol.Analyse
              {
                Serve.Protocol.a_analysis = analysis;
                a_diagram = Test_cli.read_file design;
                a_reliability = None;
                a_sm = None;
                a_params = params;
              }
          in
          match Serve.Client.one_shot ~socket request with
          | Error m -> Alcotest.fail (label ^ ": " ^ m)
          | Ok reply ->
              Alcotest.(check int) (label ^ ": exit") code
                (member_num "exit" reply);
              Alcotest.(check string) (label ^ ": output") cli
                (member_str "output" reply))
        Serve.Protocol.
          [
            (Fmea, psu, "-e DC1 --route ssam", [ ("exclude", "DC1"); ("route", "ssam") ]);
            (Fmea, clash, "", []);
            ( Fmeda,
              psu,
              "-e DC1 -t ASIL-B",
              [ ("exclude", "DC1"); ("target", "ASIL-B") ] );
            (Fmeda, clash, "-t ASIL-D", [ ("target", "ASIL-D") ]);
            (Fta, psu, "--max-cardinality 1", [ ("max_cardinality", "1") ]);
            (Fta, lonely, "", []);
            ( Assess,
              psu,
              "--trials 100000 --seed 3 -o json",
              [ ("trials", "100000"); ("seed", "3"); ("format", "json") ] );
            ( Assess,
              psu,
              "--trials 100000 --method importance",
              [ ("trials", "100000"); ("method", "importance") ] );
            (Assess, psu, "--trials 0", [ ("trials", "0") ]);
            ( Diagnose,
              psu,
              "-o CS1 -e DC1 --format sarif",
              [ ("output", "CS1"); ("exclude", "DC1"); ("format", "sarif") ] );
            (Diagnose, psu, "-o NOPE", [ ("output", "NOPE") ]);
            (Lint, psu, "", [ ("name", psu) ]);
            (Lint, psu, "--rules SSAM001", [ ("rules", "SSAM001") ]);
            (Lint, psu, "--category bogus", [ ("category", "bogus") ]);
          ]

(* Malformed wire parameters are error replies with exit 1, never a
   silent default. *)
let test_malformed_params () =
  let diagram =
    In_channel.with_open_bin "../examples/models/psu.bd" In_channel.input_all
  in
  let engine = Engine.Pipeline.create () in
  List.iter
    (fun (analysis, params, message) ->
      let output, code =
        Serve.Command.analyse ~engine
          {
            Serve.Protocol.a_analysis = analysis;
            a_diagram = diagram;
            a_reliability = None;
            a_sm = None;
            a_params = params;
          }
      in
      Alcotest.(check (pair string int)) message
        ("error: " ^ message ^ "\n", 1)
        (output, code))
    Serve.Protocol.
      [
        (Assess, [ ("trials", "abc") ], {|trials: expected an integer, got "abc"|});
        (Assess, [ ("seed", "1.5") ], {|seed: expected an integer, got "1.5"|});
        ( Assess,
          [ ("mission_hours", "long") ],
          {|mission_hours: expected a number, got "long"|} );
        ( Assess,
          [ ("rel_precision", "1%") ],
          {|rel_precision: expected a number, got "1%"|} );
        ( Fta,
          [ ("max_cardinality", "two") ],
          {|max_cardinality: expected an integer, got "two"|} );
        ( Assess,
          [ ("method", "bogus") ],
          {|unknown method "bogus" (expected direct, importance or stratified)|}
        );
        ( Assess,
          [ ("format", "xml") ],
          {|unknown format "xml" (expected text or json)|} );
        ( Diagnose,
          [ ("output", "CS1"); ("format", "html") ],
          {|unknown format "html" (expected text, json or sarif)|} );
        (Fmeda, [ ("target", "ASIL-E") ], {|unknown integrity level "ASIL-E"|});
        ( Lint,
          [ ("severity", "fatal") ],
          {|unknown severity "fatal" (expected error, warning or info)|} );
        ( Fmea,
          [ ("route", "magic") ],
          {|unknown route "magic" (expected injection, ssam or fta)|} );
        (Assess, [ ("check", "yes") ], {|unknown check "yes" (expected true or false)|});
        (Diagnose, [], {|diagnose needs an "output" param (the observation point)|});
      ]

(* A request that fits the wire reads back as itself. *)
let prop_params_roundtrip =
  let open QCheck.Gen in
  let id = string_size ~gen:(char_range 'A' 'Z') (int_range 1 5) in
  let ids = list_size (int_range 0 3) id in
  let pick table = oneofl (List.map snd table) in
  let request =
    oneof
      [
        map3
          (fun route exclude monitored ->
            Serve.Command.Fmea
              { route; exclude; monitored; csv = None; strict = false })
          (pick Serve.Command.routes) ids ids;
        map3
          (fun target exclude monitored ->
            Serve.Command.Fmeda
              { target; exclude; monitored; csv = None; strict = false })
          (oneofl
             Ssam.Requirement.
               [ QM; ASIL_A; ASIL_B; ASIL_C; ASIL_D; SIL 1; SIL 2; SIL 3; SIL 4 ])
          ids ids;
        map
          (fun max_cardinality ->
            Serve.Command.Fta { max_cardinality; exports = [] })
          (opt (int_range 1 9));
        (let* mission_hours = float_range 0. 1e6 in
         let* trials = opt (int_range 1 1_000_000) in
         let* rel_precision = opt (float_range 1e-4 1.) in
         let* seed = int in
         let* sampling = pick Serve.Command.methods in
         let* check = bool in
         let* format = oneofl [ `Text; `Json ] in
         return
           (Serve.Command.Assess
              {
                from = `Diagram;
                config =
                  {
                    Assess.Mc.default with
                    mission_hours;
                    trials;
                    rel_precision;
                    seed;
                    sampling;
                  };
                check;
                format;
              }));
        (let* output = id in
         let* exclude = ids in
         let* monitored = ids in
         let* structural = bool in
         let* format = oneofl [ `Text; `Json; `Sarif ] in
         return
           (Serve.Command.Diagnose
              { output; exclude; monitored; structural; format }));
        (let* rules = ids in
         let* categories = ids in
         let* severity = opt (oneofl Lint.Rule.[ Error; Warning; Info ]) in
         let* format = oneofl [ `Text; `Json ] in
         let* exclude = ids in
         let* monitored = ids in
         return
           (Serve.Command.Lint
              { rules; categories; severity; format; exclude; monitored }));
      ]
  in
  QCheck.Test.make ~name:"command: params round-trip" ~count:500
    (QCheck.make request) (fun r ->
      Serve.Command.of_params (Serve.Command.analysis r)
        (Serve.Command.to_params r)
      = Ok r)

let test_server_incremental_session () =
  let diagram, reliability_csv, reliability, render = system_b_texts () in
  with_server @@ fun _server socket ->
  match Serve.Client.connect socket with
  | Error m -> Alcotest.fail m
  | Ok client ->
      Fun.protect ~finally:(fun () -> Serve.Client.close client) @@ fun () ->
      let opened =
        rpc client
          (Serve.Protocol.Open_session
             {
               o_diagram = diagram;
               o_reliability = Some reliability_csv;
               o_params =
                 [ ("exclude", "DC1,BAT1"); ("monitored", "CS1,CS2,VS1") ];
             })
      in
      let session = member_str "session" opened in
      let rows = member_num "rows" opened in
      Alcotest.(check bool) "table populated" true (rows > 0);
      (* A no-op edit changes nothing. *)
      let noop =
        rpc client
          (Serve.Protocol.Edit
             {
               e_session = session;
               e_diagram = None;
               e_reliability = Some reliability_csv;
             })
      in
      (match Modelio.Json.member "changed_rows" noop with
      | Some (Modelio.Json.List l) ->
          Alcotest.(check int) "no-op changes nothing" 0 (List.length l)
      | _ -> Alcotest.fail "no changed_rows in edit response");
      (* A FIT edit on the microcontroller touches only its rows, and the
         rest of the table is reused rather than re-solved. *)
      let edited =
        match Reliability.Reliability_model.find reliability "microcontroller" with
        | Some e ->
            Reliability.Reliability_model.add reliability
              { e with Reliability.Reliability_model.fit =
                  e.Reliability.Reliability_model.fit +. 50.0 }
        | None -> Alcotest.fail "no microcontroller entry"
      in
      let response =
        rpc client
          (Serve.Protocol.Edit
             {
               e_session = session;
               e_diagram = None;
               e_reliability = Some (render edited);
             })
      in
      Alcotest.(check int) "revision advanced" 2 (member_num "revision" response);
      let changed =
        match Modelio.Json.member "changed_rows" response with
        | Some (Modelio.Json.List l) -> l
        | _ -> Alcotest.fail "no changed_rows in edit response"
      in
      Alcotest.(check bool) "some rows changed" true (List.length changed > 0);
      Alcotest.(check bool) "strictly fewer than the full table" true
        (List.length changed < rows);
      (* Only components of the edited type move. *)
      let components =
        List.sort_uniq compare (List.map (member_str "component") changed)
      in
      List.iter
        (fun c ->
          Alcotest.(check bool)
            (Printf.sprintf "%s is a microcontroller" c)
            true
            (String.length c >= 2 && String.sub c 0 2 = "MC"))
        components;
      Alcotest.(check bool) "most rows reused" true
        (member_num "rows_reused" response > rows / 2);
      (* Unknown session ids are reported, not fatal. *)
      (match
         Serve.Client.rpc client
           (Serve.Protocol.Edit
              {
                e_session = "nope";
                e_diagram = None;
                e_reliability = Some reliability_csv;
              })
       with
      | Error m ->
          Alcotest.(check bool) "error mentions the id" true
            (String.length m > 0)
      | Ok _ -> Alcotest.fail "edit of unknown session succeeded")

let session_params = [ ("exclude", "DC1,BAT1"); ("monitored", "CS1,CS2,VS1") ]

let open_session client ~diagram ~reliability =
  let opened =
    rpc client
      (Serve.Protocol.Open_session
         {
           o_diagram = diagram;
           o_reliability = Some reliability;
           o_params = session_params;
         })
  in
  member_str "session" opened

let edit_session client session ?diagram ?reliability () =
  rpc client
    (Serve.Protocol.Edit
       { e_session = session; e_diagram = diagram; e_reliability = reliability })

let changed_keys response =
  match Modelio.Json.member "changed_rows" response with
  | Some (Modelio.Json.List l) ->
      List.map (fun r -> (member_str "component" r, member_str "failure_mode" r)) l
  | _ -> Alcotest.fail "no changed_rows in edit response"

(* [text] with the first [old] after [from] replaced by [by]. *)
let replace_after text ~from ~old ~by =
  let find sub i =
    let n = String.length sub in
    let rec go i =
      if i + n > String.length text then Alcotest.fail ("no " ^ sub)
      else if String.sub text i n = sub then i
      else go (i + 1)
    in
    go i
  in
  let i = find old (find from 0) in
  String.sub text 0 i ^ by
  ^ String.sub text (i + String.length old)
      (String.length text - i - String.length old)

(* A load edit in the 13th significant digit is a new circuit: the edit
   must re-run the golden solve, not serve the old diagram's table. *)
let test_server_exact_diagram_edit () =
  let diagram, reliability_csv, _, _ = system_b_texts () in
  let edited =
    replace_after diagram ~from:"block THR1 : load" ~old:"ohms = 48;"
      ~by:"ohms = 48.00000000001;"
  in
  with_server @@ fun server socket ->
  match Serve.Client.connect socket with
  | Error m -> Alcotest.fail m
  | Ok client ->
      Fun.protect ~finally:(fun () -> Serve.Client.close client) @@ fun () ->
      let session = open_session client ~diagram ~reliability:reliability_csv in
      let golden () =
        (Engine.Pipeline.snapshot (Serve.Server.engine server))
          .Engine.Stats.golden_solves
      in
      let before = golden () in
      let response = edit_session client session ~diagram:edited () in
      Alcotest.(check bool)
        "the edit solved" true
        (member_num "solves" response > 0);
      Alcotest.(check int) "one more golden solve" (before + 1) (golden ())

(* A FIT edit reports exactly the edited type's rows, in table order. *)
let test_server_fit_edit_rows () =
  let diagram_text, reliability_csv, reliability, render = system_b_texts () in
  let edited =
    match Reliability.Reliability_model.find reliability "load" with
    | Some e ->
        Reliability.Reliability_model.add reliability
          { e with Reliability.Reliability_model.fit =
              e.Reliability.Reliability_model.fit +. 5.0 }
    | None -> Alcotest.fail "no load entry"
  in
  let expected =
    let parse f text = Result.get_ok (f (Serve.Command.Text { name = "t"; text })) in
    let diagram = parse Serve.Command.parse_diagram diagram_text in
    let reliability =
      parse (fun s -> Serve.Command.parse_reliability (Some s)) (render edited)
    in
    let conversion = Blockdiag.To_netlist.convert diagram in
    let options =
      {
        Fmea.Injection_fmea.default_options with
        exclude = [ "DC1"; "BAT1" ];
        monitored_sensors = Some [ "CS1"; "CS2"; "VS1" ];
      }
    in
    let table =
      Engine.Pipeline.injection_fmea (Engine.Pipeline.create ()) ~options
        diagram reliability
    in
    List.filter_map
      (fun (r : Fmea.Table.row) ->
        match
          List.assoc_opt r.Fmea.Table.component
            conversion.Blockdiag.To_netlist.block_types
        with
        | Some "load" -> Some (r.Fmea.Table.component, r.Fmea.Table.failure_mode)
        | _ -> None)
      table.Fmea.Table.rows
  in
  Alcotest.(check bool) "System B has load rows" true (List.length expected > 2);
  with_server @@ fun _server socket ->
  match Serve.Client.connect socket with
  | Error m -> Alcotest.fail m
  | Ok client ->
      Fun.protect ~finally:(fun () -> Serve.Client.close client) @@ fun () ->
      let session =
        open_session client ~diagram:diagram_text ~reliability:reliability_csv
      in
      let response = edit_session client session ~reliability:(render edited) () in
      Alcotest.(check (list (pair string string)))
        "changed rows are the load rows" expected (changed_keys response)

(* A diagram the netlist conversion rejects is an error reply naming the
   model on open, edit and analyse, and the session survives a rejected
   edit. *)
let test_server_conversion_errors () =
  let diagram, reliability_csv, _, _ = system_b_texts () in
  let widget =
    replace_after diagram ~from:"block THR1" ~old:": load" ~by:": widget"
  in
  let negative =
    replace_after diagram ~from:"block THR1 : load" ~old:"ohms = 48;"
      ~by:"ohms = -3;"
  in
  let unsupported =
    "diagram: block THR1: unsupported electrical block type 'widget'"
  in
  let non_positive = "diagram: Element.make THR1: non-positive resistance" in
  let expect_error label message = function
    | Error m -> Alcotest.(check string) label message m
    | Ok _ -> Alcotest.fail (label ^ ": succeeded")
  in
  with_server @@ fun _server socket ->
  match Serve.Client.connect socket with
  | Error m -> Alcotest.fail m
  | Ok client ->
      Fun.protect ~finally:(fun () -> Serve.Client.close client) @@ fun () ->
      List.iter
        (fun (label, o_diagram, message) ->
          expect_error ("open " ^ label) message
            (Serve.Client.rpc client
               (Serve.Protocol.Open_session
                  {
                    o_diagram;
                    o_reliability = Some reliability_csv;
                    o_params = session_params;
                  })))
        [ ("widget", widget, unsupported); ("negative", negative, non_positive) ];
      let session = open_session client ~diagram ~reliability:reliability_csv in
      List.iter
        (fun (label, e_diagram, message) ->
          expect_error ("edit " ^ label) message
            (Serve.Client.rpc client
               (Serve.Protocol.Edit
                  {
                    e_session = session;
                    e_diagram = Some e_diagram;
                    e_reliability = None;
                  })))
        [ ("widget", widget, unsupported); ("negative", negative, non_positive) ];
      Alcotest.(check int) "the session still edits" 1
        (member_num "revision"
           (edit_session client session ~reliability:reliability_csv ()));
      List.iter
        (fun (label, a_diagram, message) ->
          let reply =
            rpc client
              (Serve.Protocol.Analyse
                 {
                   a_analysis = Serve.Protocol.Fmea;
                   a_diagram;
                   a_reliability = Some reliability_csv;
                   a_sm = None;
                   a_params = session_params;
                 })
          in
          Alcotest.(check (pair int string)) ("analyse " ^ label)
            (1, "error: " ^ message ^ "\n")
            (member_num "exit" reply, member_str "output" reply))
        [ ("widget", widget, unsupported); ("negative", negative, non_positive) ]

(* `same assess` pinned byte for byte without its wall-clock figures:
   direct sampling on the PSU as text and JSON, the k-of-n carry-save
   tape on a 2-of-24 vote, and importance sampling on the PSU. *)
let vote_2_of_24 =
  let events = List.init 24 (fun i -> (Printf.sprintf "e%d" i, float_of_int (90 + i) *. 1e-9)) in
  Printf.sprintf
    "<?xml version=\"1.0\"?>\n<opsa-mef name=\"vote\"><define-fault-tree name=\"vote\">\
     <define-gate name=\"top\"><atleast min=\"2\">%s</atleast></define-gate>%s\
     </define-fault-tree></opsa-mef>\n"
    (String.concat ""
       (List.map (fun (id, _) -> Printf.sprintf "<basic-event name=\"%s\"/>" id) events))
    (String.concat ""
       (List.map
          (fun (id, rate) ->
            Printf.sprintf
              "<define-basic-event name=\"%s\"><exponential><float \
               value=\"%.17g\"/></exponential></define-basic-event>"
              id rate)
          events))

let test_assess_golden () =
  let psu = Serve.Command.Path "../examples/models/psu.bd" in
  let vote = Serve.Command.Text { name = "vote.xml"; text = vote_2_of_24 } in
  List.iter
    (fun (golden, source, from, config, format) ->
      let models =
        { Serve.Command.diagram = Some source; reliability = None; sm = None; queries = [] }
      in
      let reply =
        Serve.Command.run models
          (Serve.Command.Assess { from; config; check = false; format })
      in
      Alcotest.(check int) (golden ^ ": exit") 0 reply.Serve.Command.code;
      Alcotest.(check string) (golden ^ ": output")
        (Test_cli.read_file ("golden/" ^ golden))
        (reply.Serve.Command.err ^ reply.Serve.Command.out))
    Assess.Mc.
      [
        ( "psu_assess.txt", psu, `Diagram,
          { default with trials = Some 200_000; seed = 11 }, `Text );
        ( "psu_assess.json", psu, `Diagram,
          { default with trials = Some 200_000; seed = 11 }, `Json );
        ( "vote24_assess.json", vote, `Open_psa,
          { default with trials = Some 100_000; seed = 5; mission_hours = 50_000.0 },
          `Json );
        ( "psu_assess_importance.txt", psu, `Diagram,
          { default with trials = Some 100_000; seed = 7; sampling = Importance },
          `Text );
      ]

let suite =
  [
    Alcotest.test_case "command: assess output golden" `Quick test_assess_golden;
    Alcotest.test_case "protocol: request round-trip" `Quick test_protocol_roundtrip;
    Alcotest.test_case "protocol: framing rejects newlines" `Quick
      test_protocol_framing_rejects_newline;
    Alcotest.test_case "protocol: canonical fingerprint" `Quick
      test_fingerprint_canonical;
    Alcotest.test_case "singleflight: concurrent callers coalesce" `Quick
      test_singleflight_coalesces;
    Alcotest.test_case "singleflight: distinct keys independent" `Quick
      test_singleflight_distinct_keys_do_not_coalesce;
    Alcotest.test_case "server: ping and stats" `Quick test_server_ping_and_stats;
    Alcotest.test_case "server: analyse, replay from cache" `Quick
      test_server_analyse_and_cache;
    Alcotest.test_case "server: concurrent identical requests, one solve" `Quick
      test_server_coalesces_concurrent;
    Alcotest.test_case "server: incremental session reuses rows" `Quick
      test_server_incremental_session;
    Alcotest.test_case "server: 13th-digit diagram edit re-solves" `Quick
      test_server_exact_diagram_edit;
    Alcotest.test_case "server: FIT edit reports that type's rows" `Quick
      test_server_fit_edit_rows;
    Alcotest.test_case "server: conversion errors are error replies" `Quick
      test_server_conversion_errors;
    Alcotest.test_case "server: fta engine parameter" `Quick
      test_server_fta_engine_param;
    Alcotest.test_case "server: assess budgets validated" `Quick
      test_server_assess_budgets;
    Alcotest.test_case "server: reply = CLI, every kind" `Quick
      test_server_equals_cli_every_kind;
    Alcotest.test_case "command: malformed params" `Quick
      test_malformed_params;
    QCheck_alcotest.to_alcotest prop_params_roundtrip;
  ]
