(* edit-loop: the paper's iterative loop through the warm daemon.  One
   `same serve` process holds one System B session (DC1 and BAT1
   excluded, CS1, CS2 and VS1 monitored) and receives the fixed 8-op
   cycle of Inputs.cycle: 4 reliability-only edits (one component type's
   FIT each, types rotating), 2 diagram edits (one load's ohms each, so
   the golden factorisation is redone and no row is reused) and 2
   replays of an analyse-fmea request that is already in the response
   cache. *)

let rows_expected = 139

type row = { safety_related : bool; spf : float; dist : float }

type state = {
  rel_t : Inputs.reliability_template;
  diag_t : Inputs.diagram_template;
  base_diagram : string;
  base_reliability : string;
  fits : float array;
  ohms : float array;
  edit : int -> Inputs.edit;  (** the seeded edit stream, asked for ops in order *)
}

let prepare ~inputs ~seed =
  let base_diagram = Inputs.read (Filename.concat inputs "system_b.bd") in
  let base_reliability = Inputs.read (Filename.concat inputs "system_b_reliability.csv") in
  let rel_t = Inputs.reliability_template base_reliability in
  let diag_t = Inputs.diagram_template base_diagram in
  {
    rel_t;
    diag_t;
    base_diagram;
    base_reliability;
    fits = Array.copy rel_t.Inputs.base_fit;
    ohms = Array.copy diag_t.Inputs.base_ohms;
    edit = Inputs.edit_stream ~seed ~rel:rel_t ~diag:diag_t;
  }

(* The in-process twin of the session, for the traced replay. *)
type mirror = {
  pipe : Engine.Pipeline.t;
  mutable m_diagram : Blockdiag.Diagram.t;
  mutable m_reliability : Reliability.Reliability_model.t;
  mutable m_table : Fmea.Table.t;
}

type daemon = {
  pid : int;
  client : Serve.Client.t;
  session : string;
  mutable revision : int;
  changed : (string * string, row) Hashtbl.t;  (** latest row per key, from edit replies *)
  replay_request : Serve.Protocol.request;
  replay_output : string;
  st : state;
  mirror : mirror option;
  (* the last op, for its replay *)
  mutable last : Serve.Protocol.request * Modelio.Json.t * Inputs.edit * string;
}

let json_num k j = Modelio.Json.(Option.bind (member k j) to_float)
let json_str k j = Modelio.Json.(Option.bind (member k j) to_str)

let rpc_exn client req =
  match Serve.Client.rpc client req with Ok j -> j | Error m -> failwith ("daemon: " ^ m)

(* Readiness is a successful connect: retry until the socket accepts.
   The 0.5 ms pause only keeps the retry loop off the core the daemon is
   starting on; set-up time does not depend on a fixed wait. *)
let rec connect socket tries =
  match Serve.Client.connect socket with
  | Ok c -> c
  | Error m ->
      if tries = 0 || Sut.now () >= !Loop.deadline then failwith m
      else begin
        Unix.sleepf 0.0005;
        connect socket (tries - 1)
      end

let row_of_json j =
  let b k = Modelio.Json.(Option.bind (member k j) to_bool) in
  match
    (json_str "component" j, json_str "failure_mode" j, b "safety_related", json_num "single_point_fit" j,
     json_num "distribution_pct" j)
  with
  | Some c, Some m, Some sr, Some spf, Some dist -> Some ((c, m), { safety_related = sr; spf; dist })
  | _ -> None

(* One op: build the request (outside the timer), one round trip, check
   the reply.  Returns (class, latency, ok). *)
let step d i =
  let st = d.st in
  let e = st.edit i in
  let cls, req, payload =
    match e with
    | Inputs.Set_fit (k, v) ->
        st.fits.(k) <- v;
        let csv = Inputs.render_reliability st.rel_t st.fits in
        ( "edit_rel",
          Serve.Protocol.Edit { e_session = d.session; e_diagram = None; e_reliability = Some csv },
          csv )
    | Inputs.Set_ohms (k, v) ->
        st.ohms.(k) <- v;
        let text = Inputs.render_diagram st.diag_t st.ohms in
        ( "edit_diagram",
          Serve.Protocol.Edit { e_session = d.session; e_diagram = Some text; e_reliability = None },
          text )
    | Inputs.Replay -> ("replay", d.replay_request, "")
  in
  let reply, latency =
    Trace.op ("serve.rpc." ^ cls) (fun () ->
        let t0 = Sut.now () in
        let r = Serve.Client.rpc d.client req in
        (r, Sut.now () -. t0))
  in
  let ok =
    match reply with
    | Error m ->
        Loop.failed_msg "op %d (%s): %s" i cls m;
        false
    | Ok j -> (
        d.last <- (req, j, e, payload);
        match e with
        | Inputs.Replay ->
            let cached = Modelio.Json.(Option.bind (member "cached" j) to_bool) in
            if json_str "output" j = Some d.replay_output && json_num "exit" j = Some 0.0 && cached = Some true
            then true
            else (
              Loop.failed_msg "op %d: replay differs from the first answer or missed the cache" i;
              false)
        | _ ->
            let revision = json_num "revision" j and rows = json_num "rows" j in
            let changed = Option.value ~default:[] Modelio.Json.(Option.bind (member "changed_rows" j) to_list) in
            List.iter
              (fun r -> Option.iter (fun (k, v) -> Hashtbl.replace d.changed k v) (row_of_json r))
              changed;
            if revision = Some (float_of_int (d.revision + 1)) && rows = Some (float_of_int rows_expected)
            then (
              d.revision <- d.revision + 1;
              true)
            else (
              Loop.failed_msg "op %d (%s): revision %s rows %s" i cls
                (Option.fold ~none:"-" ~some:string_of_float revision)
                (Option.fold ~none:"-" ~some:string_of_float rows);
              false))
  in
  (cls, latency, ok)

(* The traced replay of the last op: the library calls the daemon makes
   for it, on a private pipeline that has seen the same edits. *)
let replay d _i =
  match d.mirror with
  | None -> ()
  | Some m -> (
      let req, reply, e, payload = d.last in
      Trace.stage "modelio.json" (fun () ->
          let line = Modelio.Json.to_string (Serve.Protocol.request_to_json req) in
          ignore (Modelio.Json.parse line);
          ignore (Modelio.Json.parse (Modelio.Json.to_string reply)));
      let engine diagram reliability =
        let previous =
          {
            Engine.Pipeline.prev_diagram = m.m_diagram;
            prev_reliability = m.m_reliability;
            prev_table = m.m_table;
          }
        in
        let before = Engine.Pipeline.snapshot m.pipe in
        let table =
          Trace.stage "engine.injection_fmea" (fun () ->
              Engine.Pipeline.injection_fmea m.pipe ~previous ~options:Cli.system_b_options diagram
                reliability)
        in
        let after = Engine.Pipeline.snapshot m.pipe in
        Layers.note_engine
          ~reused:(after.Engine.Stats.rows_reused - before.Engine.Stats.rows_reused)
          ~classified:(after.Engine.Stats.rows_classified - before.Engine.Stats.rows_classified)
          ~golden:(after.Engine.Stats.golden_solves - before.Engine.Stats.golden_solves);
        m.m_diagram <- diagram;
        m.m_reliability <- reliability;
        m.m_table <- table
      in
      match e with
      | Inputs.Replay -> ()
      | Inputs.Set_fit _ -> engine m.m_diagram (Cli.parse_reliability payload)
      | Inputs.Set_ohms _ ->
          let diagram = Cli.parse_diagram payload in
          (* probes: the pipeline converts and factorises internally *)
          let conversion =
            Trace.probe "blockdiag.to_netlist" (fun () -> Blockdiag.To_netlist.convert diagram)
          in
          Cli.dc_factorise conversion.Blockdiag.To_netlist.netlist;
          engine diagram m.m_reliability)

(* Daemons started so far in this run; each gets a socket of its own. *)
let daemons = ref 0

(* Launch, connect, open the session, compute the replayed request once,
   then one untimed pass over the op cycle.  All of it is set-up time,
   returned in reference seconds (Calib). *)
let setup ~same ~dir ~inputs ~seed ~mirror =
  let st = prepare ~inputs ~seed in
  incr daemons;
  let name = Filename.concat dir (Printf.sprintf "same-%d" !daemons) in
  let socket = name ^ ".sock" in
  (try Sys.remove socket with Sys_error _ -> ());
  let c0 = Calib.sample () in
  let t0 = Sut.now () in
  let pid =
    Sut.spawn ~stderr:(name ^ ".log") [| same; "serve"; "--socket"; socket; "-j"; "1" |]
  in
  let client = connect socket 1_000_000 in
  let opened =
    rpc_exn client
      (Serve.Protocol.Open_session
         {
           o_diagram = st.base_diagram;
           o_reliability = Some st.base_reliability;
           o_params = Cli.system_b_params;
         })
  in
  let session = Option.get (json_str "session" opened) in
  if json_num "rows" opened <> Some (float_of_int rows_expected) then
    failwith "open: unexpected row count";
  let replay_request =
    Serve.Protocol.Analyse
      {
        Serve.Protocol.a_analysis = Serve.Protocol.Fmea;
        a_diagram = st.base_diagram;
        a_reliability = Some st.base_reliability;
        a_sm = None;
        a_params = Cli.system_b_params;
      }
  in
  let first = rpc_exn client replay_request in
  let mirror =
    if mirror then begin
      let pipe = Engine.Pipeline.create () in
      let d0 = Blockdiag.Text_format.parse st.base_diagram in
      let r0 =
        Reliability.Reliability_model.of_spreadsheet
          (Modelio.Spreadsheet.of_csv ~name:"reliability" (Modelio.Csv.parse st.base_reliability))
      in
      let t0 = Engine.Pipeline.injection_fmea pipe ~options:Cli.system_b_options d0 r0 in
      Some { pipe; m_diagram = d0; m_reliability = r0; m_table = t0 }
    end
    else None
  in
  let d =
    {
      pid;
      client;
      session;
      revision = 0;
      changed = Hashtbl.create 256;
      replay_request;
      replay_output = Option.get (json_str "output" first);
      st;
      mirror;
      last = (replay_request, first, Inputs.Replay, "");
    }
  in
  let warm_failed = ref 0 in
  for i = 0 to Array.length Inputs.cycle - 1 do
    let _, _, ok = step d i in
    replay d i;
    if not ok then incr warm_failed
  done;
  let t = Sut.now () -. t0 in
  (d, t *. Calib.factor c0 (Calib.sample ()), !warm_failed)

let stop d =
  Serve.Client.close d.client;
  Sut.terminate d.pid

(* ---------- warm equals cold, once per run, outside timing ---------- *)

let csv_table path =
  match Modelio.Csv.parse (Inputs.read path) with
  | header :: rows ->
      let col name =
        let rec find i = function
          | [] -> failwith ("no column " ^ name)
          | h :: _ when h = name -> i
          | _ :: t -> find (i + 1) t
        in
        find 0 header
      in
      let c = col "Component" and m = col "Failure_Mode" and sr = col "Safety_Related"
      and spf = col "Single_Point_Failure_Rate" and dist = col "Distribution" in
      let number s =
        match Scanf.sscanf_opt (String.trim s) "%f" Fun.id with Some f -> f | None -> 0.0
      in
      List.map
        (fun r ->
          let f i = List.nth r i in
          ( (f c, f m),
            { safety_related = f sr = "Yes"; spf = number (f spf); dist = number (f dist) } ))
        rows
  | [] -> []

let close_enough a b = Float.abs (a -. b) <= 1e-9 +. (1e-5 *. Float.abs b)

let same_row a b =
  a.safety_related = b.safety_related && close_enough a.spf b.spf && close_enough a.dist b.dist

(* The final session table (the cold table of the initial model with
   every changed row the edits returned applied) must equal a cold
   `same fmea` of the final model; and the replayed daemon answer must
   equal the cold CLI's output byte for byte. *)
let warm_equals_cold ~same ~dir d =
  let st = d.st in
  let cold ~name ~diagram ~reliability =
    let bd = Filename.concat dir (name ^ ".bd") and csv = Filename.concat dir (name ^ "_rel.csv") in
    Inputs.write bd diagram;
    Inputs.write csv reliability;
    let args extra =
      Array.of_list ((same :: "fmea" :: bd :: "-r" :: csv :: Cli.system_b_flags) @ extra)
    in
    let out = Filename.concat dir (name ^ "_cold.csv") and txt = Filename.concat dir (name ^ "_cold.txt") in
    let c1 = Sut.run_child ~stdout:txt (args []) in
    let c2 = Sut.run_child (args [ "-o"; out ]) in
    if c1.Sut.code <> 0 || c2.Sut.code <> 0 then failwith ("cold fmea failed on the " ^ name ^ " model");
    (Inputs.read txt, csv_table out)
  in
  let text0, rows0 = cold ~name:"initial" ~diagram:st.base_diagram ~reliability:st.base_reliability in
  let _, rows_final =
    cold ~name:"final"
      ~diagram:(Inputs.render_diagram st.diag_t st.ohms)
      ~reliability:(Inputs.render_reliability st.rel_t st.fits)
  in
  let warm = Hashtbl.create 256 in
  List.iter (fun (k, v) -> Hashtbl.replace warm k v) rows0;
  Hashtbl.iter (Hashtbl.replace warm) d.changed;
  let mismatches =
    List.filter
      (fun (k, v) -> match Hashtbl.find_opt warm k with Some w -> not (same_row w v) | None -> true)
      rows_final
  in
  let ok_text = text0 = d.replay_output in
  let ok_rows = mismatches = [] && Hashtbl.length warm = List.length rows_final in
  if not ok_text then Loop.failed_msg "daemon fmea answer differs from the cold CLI output";
  if not ok_rows then
    Loop.failed_msg "warm session table differs from cold fmea in %d rows" (List.length mismatches);
  ok_text && ok_rows
