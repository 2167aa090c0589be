type config = {
  socket_path : string;
  cache_dir : string option;
  jobs : int;
}

type stats = {
  requests : int;
  analyses_computed : int;
  analyses_cached : int;
  analyses_coalesced : int;
  sessions_open : int;
}

type t = {
  config : config;
  engine : Engine.Pipeline.t;
  sessions : Session.t;
  flight : (string * int) Singleflight.t;
  listen_fd : Unix.file_descr;
  (* Self-pipe: [stop] writes a byte so the select-based accept loop
     wakes immediately instead of on the next connection. *)
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  stopping : bool Atomic.t;
  stopped : bool Atomic.t;
  c_requests : int Atomic.t;
  c_computed : int Atomic.t;
  c_cached : int Atomic.t;
  c_coalesced : int Atomic.t;
  (* Requests currently executing an analysis — the denominator of the
     per-request job budget. *)
  active : int Atomic.t;
  workers : (int, Thread.t) Hashtbl.t;
  workers_lock : Mutex.t;
  mutable accept_thread : Thread.t option;
}

let src = Logs.Src.create "serve" ~doc:"analysis daemon"

module Log = (val Logs.src_log src : Logs.LOG)

open Modelio.Json

(* ---------- per-request dispatch ---------- *)

(* Fair-share budget: with [a] requests in flight each gets an equal
   slice of the job count, never less than one domain.  A lone request
   still gets all of it. *)
let budget t =
  let a = Stdlib.max 1 (Atomic.get t.active) in
  Stdlib.max 1 (t.config.jobs / a)

let with_request_slot t f =
  Atomic.incr t.active;
  Fun.protect ~finally:(fun () -> Atomic.decr t.active) @@ fun () ->
  Exec.with_jobs (budget t) f

let handle_analyse t (a : Protocol.analyse) =
  let fp = Protocol.fingerprint a in
  let key = Engine.Fingerprint.to_hex fp in
  let computed = ref false in
  let compute () =
    Engine.Pipeline.memo t.engine ~stage:"serve.response" ~version:2 ~key:fp
      (fun () ->
        computed := true;
        with_request_slot t (fun () -> Command.analyse ~engine:t.engine a))
  in
  let (output, exit_code), outcome = Singleflight.run t.flight ~key compute in
  let coalesced = outcome = Singleflight.Coalesced in
  let cached = (not coalesced) && not !computed in
  if coalesced then Atomic.incr t.c_coalesced
  else if cached then Atomic.incr t.c_cached
  else Atomic.incr t.c_computed;
  Protocol.ok
    [
      ("exit", Number (float_of_int exit_code));
      ("output", String output);
      ("cached", Bool cached);
      ("coalesced", Bool coalesced);
    ]

(* A session is an injection FMEA: its [open] params are an fmea
   request's. *)
let session_options params =
  match Command.of_params Protocol.Fmea params with
  | Ok (Command.Fmea { route = Via_injection; exclude; monitored; _ }) ->
      Ok
        {
          Fmea.Injection_fmea.default_options with
          exclude;
          monitored_sensors =
            (match monitored with [] -> None | ids -> Some ids);
        }
  | Ok _ -> Error "sessions analyse by injection only"
  | Error _ as e -> e

(* Session texts arrive unlabelled; errors name them as analyse's do. *)
let diagram_text text = Command.Text { name = "diagram"; text }
let reliability_text text = Command.Text { name = "reliability"; text }

let handle_open t ~o_diagram ~o_reliability ~o_params =
  match
    ( Command.parse_diagram (diagram_text o_diagram),
      Command.parse_reliability (Option.map reliability_text o_reliability),
      session_options o_params )
  with
  | Error m, _, _ | _, Error m, _ | _, _, Error m -> Protocol.error m
  | Ok diagram, Ok reliability, Ok options -> (
      match
        with_request_slot t (fun () ->
            Command.converting ~model:"diagram" (fun () ->
                Engine.Pipeline.injection_fmea t.engine ~options diagram
                  reliability))
      with
      | exception Fmea.Injection_fmea.Golden_run_failed m ->
          Protocol.error (Printf.sprintf "golden simulation failed: %s" m)
      | Error m -> Protocol.error m
      | Ok table ->
          let s =
            Session.open_session t.sessions ~options ~diagram ~reliability
              ~table
          in
          Protocol.ok
            [
              ("session", String s.Session.s_id);
              ("revision", Number 0.);
              ( "rows",
                Number (float_of_int (List.length table.Fmea.Table.rows)) );
              ("output", String (Command.table_report table));
            ])

(* Rows of [table] absent from [previous] (matched on the full row, so a
   changed classification reports as changed).  Analysis order is kept.
   Equal rows share their (component, failure mode), so each row is
   compared only with the previous rows under that key. *)
let changed_rows ~previous table =
  let key (r : Fmea.Table.row) =
    (r.Fmea.Table.component, r.Fmea.Table.failure_mode)
  in
  let before = Hashtbl.create 256 in
  List.iter (fun r -> Hashtbl.add before (key r) r) previous.Fmea.Table.rows;
  List.filter
    (fun row ->
      not
        (List.exists (Fmea.Table.equal_row row)
           (Hashtbl.find_all before (key row))))
    table.Fmea.Table.rows

let row_json (r : Fmea.Table.row) =
  Object
    [
      ("component", String r.Fmea.Table.component);
      ("failure_mode", String r.Fmea.Table.failure_mode);
      ("distribution_pct", Number r.Fmea.Table.distribution_pct);
      ("safety_related", Bool r.Fmea.Table.safety_related);
      ("impact", String r.Fmea.Table.impact);
      ("single_point_fit", Number r.Fmea.Table.single_point_fit);
    ]

let handle_edit t ~e_session ~e_diagram ~e_reliability =
  match Session.find t.sessions e_session with
  | None -> Protocol.error (Printf.sprintf "no such session %S" e_session)
  | Some s -> (
      let parse f = function
        | None -> Ok None
        | Some text -> Result.map Option.some (f text)
      in
      match
        ( parse (fun d -> Command.parse_diagram (diagram_text d)) e_diagram,
          parse
            (fun r -> Command.parse_reliability (Some (reliability_text r)))
            e_reliability )
      with
      | Error m, _ | _, Error m -> Protocol.error m
      | Ok new_diagram, Ok new_reliability -> (
          (* Serialise edits to one session: the reuse baseline must be
             the table this edit replaces. *)
          Mutex.lock s.Session.s_lock;
          Fun.protect ~finally:(fun () -> Mutex.unlock s.Session.s_lock)
          @@ fun () ->
          let diagram =
            Option.value new_diagram ~default:s.Session.s_diagram
          in
          let reliability =
            Option.value new_reliability ~default:s.Session.s_reliability
          in
          let previous =
            {
              Engine.Pipeline.prev_diagram = s.Session.s_diagram;
              prev_reliability = s.Session.s_reliability;
              prev_table = s.Session.s_table;
            }
          in
          let before = Engine.Pipeline.snapshot t.engine in
          match
            with_request_slot t (fun () ->
                Command.converting ~model:"diagram" (fun () ->
                    Engine.Pipeline.injection_fmea t.engine ~previous
                      ~options:s.Session.s_options diagram reliability))
          with
          | exception Fmea.Injection_fmea.Golden_run_failed m ->
              Protocol.error (Printf.sprintf "golden simulation failed: %s" m)
          | Error m -> Protocol.error m
          | Ok table ->
              let after = Engine.Pipeline.snapshot t.engine in
              let changed =
                changed_rows ~previous:s.Session.s_table table
              in
              s.Session.s_diagram <- diagram;
              s.Session.s_reliability <- reliability;
              s.Session.s_table <- table;
              s.Session.s_revision <- s.Session.s_revision + 1;
              Protocol.ok
                [
                  ("session", String s.Session.s_id);
                  ("revision", Number (float_of_int s.Session.s_revision));
                  ( "rows",
                    Number (float_of_int (List.length table.Fmea.Table.rows))
                  );
                  ("changed_rows", List (List.map row_json changed));
                  ( "rows_reused",
                    Number
                      (float_of_int
                         (after.Engine.Stats.rows_reused
                        - before.Engine.Stats.rows_reused)) );
                  ( "solves",
                    Number
                      (float_of_int
                         (Engine.Stats.solves_performed after
                        - Engine.Stats.solves_performed before)) );
                ]))

let stats_response t =
  let snap = Engine.Pipeline.snapshot t.engine in
  Protocol.ok
    [
      ("requests", Number (float_of_int (Atomic.get t.c_requests)));
      ("computed", Number (float_of_int (Atomic.get t.c_computed)));
      ("cached", Number (float_of_int (Atomic.get t.c_cached)));
      ("coalesced", Number (float_of_int (Atomic.get t.c_coalesced)));
      ("sessions", Number (float_of_int (Session.count t.sessions)));
      ("in_flight", Number (float_of_int (Singleflight.in_flight t.flight)));
      ("jobs", Number (float_of_int t.config.jobs));
      ( "engine",
        Object
          [
            ("mem_hits", Number (float_of_int snap.Engine.Stats.mem_hits));
            ("disk_hits", Number (float_of_int snap.Engine.Stats.disk_hits));
            ("misses", Number (float_of_int snap.Engine.Stats.misses));
            ( "golden_solves",
              Number (float_of_int snap.Engine.Stats.golden_solves) );
            ( "rows_classified",
              Number (float_of_int snap.Engine.Stats.rows_classified) );
            ( "rows_reused",
              Number (float_of_int snap.Engine.Stats.rows_reused) );
          ] );
    ]

let respond t request =
  match request with
  | Protocol.Ping -> Protocol.ok [ ("pong", Bool true) ]
  | Protocol.Stats -> stats_response t
  | Protocol.Shutdown -> Protocol.ok [ ("stopping", Bool true) ]
  | Protocol.Analyse a -> handle_analyse t a
  | Protocol.Open_session { o_diagram; o_reliability; o_params } ->
      handle_open t ~o_diagram ~o_reliability ~o_params
  | Protocol.Edit { e_session; e_diagram; e_reliability } ->
      handle_edit t ~e_session ~e_diagram ~e_reliability
  | Protocol.Close_session id ->
      if Session.close t.sessions id then Protocol.ok [ ("closed", Bool true) ]
      else Protocol.error (Printf.sprintf "no such session %S" id)

(* ---------- connection loop ---------- *)

let wake t = try ignore (Unix.write t.wake_w (Bytes.make 1 'x') 0 1) with _ -> ()

let request_stop t =
  if not (Atomic.exchange t.stopping true) then wake t

let serve_connection t fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let rec loop () =
    match Protocol.read_frame ic with
    | None -> ()
    | Some line ->
        let response, shutdown =
          match Modelio.Json.parse line with
          | exception Modelio.Json.Parse_error { pos; message } ->
              ( Protocol.error
                  (Printf.sprintf "bad JSON at offset %d: %s" pos message),
                false )
          | json -> (
              match Protocol.request_of_json json with
              | Error m -> (Protocol.error m, false)
              | Ok request -> (
                  Atomic.incr t.c_requests;
                  match respond t request with
                  | response -> (response, request = Protocol.Shutdown)
                  | exception e ->
                      (Protocol.error (Printexc.to_string e), false)))
        in
        (match
           Protocol.write_frame oc (Modelio.Json.to_string response)
         with
        | () -> ()
        | exception _ -> raise Exit);
        if shutdown then begin
          request_stop t;
          raise Exit
        end;
        loop ()
  in
  (try loop () with Exit | End_of_file | Sys_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

(* ---------- accept loop ---------- *)

let accept_loop t =
  let rec loop () =
    if Atomic.get t.stopping then ()
    else begin
      (match Unix.select [ t.listen_fd; t.wake_r ] [] [] (-1.0) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | ready, _, _ ->
          if List.mem t.wake_r ready then begin
            let buf = Bytes.create 16 in
            try ignore (Unix.read t.wake_r buf 0 16)
            with Unix.Unix_error _ -> ()
          end;
          if (not (Atomic.get t.stopping)) && List.mem t.listen_fd ready then begin
            match Unix.accept t.listen_fd with
            | exception Unix.Unix_error _ -> ()
            | fd, _ ->
                let worker =
                  Thread.create
                    (fun () ->
                      let id = Thread.id (Thread.self ()) in
                      Fun.protect
                        ~finally:(fun () ->
                          Mutex.lock t.workers_lock;
                          Hashtbl.remove t.workers id;
                          Mutex.unlock t.workers_lock)
                        (fun () -> serve_connection t fd))
                    ()
                in
                Mutex.lock t.workers_lock;
                Hashtbl.replace t.workers (Thread.id worker) worker;
                Mutex.unlock t.workers_lock
          end);
      loop ()
    end
  in
  loop ();
  (* Drain: wait for in-flight connections so their responses flush
     before the socket disappears. *)
  let rec drain () =
    Mutex.lock t.workers_lock;
    let pending =
      Hashtbl.fold (fun id th acc -> (id, th) :: acc) t.workers []
    in
    Mutex.unlock t.workers_lock;
    match pending with
    | [] -> ()
    | entries ->
        List.iter
          (fun (id, th) ->
            (try Thread.join th with _ -> ());
            Mutex.lock t.workers_lock;
            Hashtbl.remove t.workers id;
            Mutex.unlock t.workers_lock)
          entries;
        drain ()
  in
  drain ();
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (try Unix.unlink t.config.socket_path with Unix.Unix_error _ -> ());
  Atomic.set t.stopped true

let start config =
  let engine =
    Engine.Pipeline.create
      ~cache:(Engine.Cache.create ?dir:config.cache_dir ())
      ()
  in
  (if Sys.file_exists config.socket_path then
     try Unix.unlink config.socket_path with Unix.Unix_error _ -> ());
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.bind listen_fd (Unix.ADDR_UNIX config.socket_path)
   with e ->
     (try Unix.close listen_fd with Unix.Unix_error _ -> ());
     raise e);
  Unix.listen listen_fd 64;
  let wake_r, wake_w = Unix.pipe () in
  let t =
    {
      config;
      engine;
      sessions = Session.create ();
      flight = Singleflight.create ();
      listen_fd;
      wake_r;
      wake_w;
      stopping = Atomic.make false;
      stopped = Atomic.make false;
      c_requests = Atomic.make 0;
      c_computed = Atomic.make 0;
      c_cached = Atomic.make 0;
      c_coalesced = Atomic.make 0;
      active = Atomic.make 0;
      workers = Hashtbl.create 16;
      workers_lock = Mutex.create ();
      accept_thread = None;
    }
  in
  Log.info (fun m ->
      m "listening on %s (jobs=%d)" config.socket_path config.jobs);
  t.accept_thread <- Some (Thread.create accept_loop t);
  t

let stop t = request_stop t

let wait t =
  match t.accept_thread with
  | Some th -> Thread.join th
  | None -> ()

let stats t =
  {
    requests = Atomic.get t.c_requests;
    analyses_computed = Atomic.get t.c_computed;
    analyses_cached = Atomic.get t.c_cached;
    analyses_coalesced = Atomic.get t.c_coalesced;
    sessions_open = Session.count t.sessions;
  }

let engine t = t.engine

(* Signal_handle does not cut it here: every thread of a quiescent
   daemon is blocked in C (select, cond_wait), so no thread reaches a
   safepoint to run the OCaml handler.  Block the signals in all threads
   (the mask is set before {!start}, so spawned threads inherit it) and
   sigwait on a dedicated thread instead — delivery is then synchronous
   and [request_stop]'s wake pipe does the rest. *)
let run config =
  let signals = [ Sys.sigterm; Sys.sigint ] in
  let previous_mask = Thread.sigmask Unix.SIG_BLOCK signals in
  let t = start config in
  let _waiter : Thread.t =
    Thread.create
      (fun () ->
        match Thread.wait_signal signals with
        | _signal -> request_stop t
        | exception _ -> ())
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      ignore (Thread.sigmask Unix.SIG_SETMASK previous_mask))
    (fun () -> wait t)
