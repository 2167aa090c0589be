(* In-memory spans for the traced run, recorded from the benchmark's own
   code around its calls into each library layer.  A span has a name, a
   start and an end, its parent span and the id of the op it belongs to;
   spans are written out only when the run ends.

   Three kinds: [Op] is one end-to-end op as the user sees it (a daemon
   round trip or a CLI child), [Stage] a replayed layer call on that op's
   path (summed for coverage), and [Probe] a layer call made only to
   expose a kernel that a stage already performs internally (reported,
   never summed, so nothing is counted twice). *)

type kind = Op | Stage | Probe

type span = {
  id : int;
  parent : int;  (** -1 at top level *)
  op : int;
  name : string;
  kind : kind;
  t0 : float;
  t1 : float;
  words : float;  (** words allocated inside the span, children included *)
}

let enabled = ref false
let spans : span list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0
let op_id = ref 0

let reset () =
  spans := [];
  stack := [];
  next_id := 0;
  op_id := 0

(* Words allocated by this domain so far. *)
let words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let record ~kind name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let w0 = words () in
    let t0 = Sut.now () in
    let finish () =
      let t1 = Sut.now () in
      let w1 = words () in
      stack := List.tl !stack;
      spans :=
        { id; parent; op = !op_id; name; kind; t0; t1; words = w1 -. w0 }
        :: !spans
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

let stage name f = record ~kind:Stage name f
let probe name f = record ~kind:Probe name f
let op name f = record ~kind:Op name f

(* Self time: the span's duration minus the time its children cover. *)
let self_times () =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)
          +. (s.t1 -. s.t0)))
    !spans;
  List.map
    (fun s ->
      (s, s.t1 -. s.t0 -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id)))
    !spans

type layer = {
  calls : int;
  self_ms : float list;  (** per call *)
  kwords : float list;  (** per call *)
  layer_kind : kind;
}

let layers () =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (s, self) ->
      let l =
        Option.value (Hashtbl.find_opt tbl s.name)
          ~default:{ calls = 0; self_ms = []; kwords = []; layer_kind = s.kind }
      in
      Hashtbl.replace tbl s.name
        {
          l with
          calls = l.calls + 1;
          self_ms = (1000.0 *. self) :: l.self_ms;
          kwords = (s.words /. 1000.0) :: l.kwords;
        })
    (self_times ());
  tbl

let kind_name = function Op -> "op" | Stage -> "stage" | Probe -> "probe"

(* The span file: one JSON object per line, times in microseconds from
   the first span. *)
let write path =
  let all = List.rev !spans in
  let origin = match all with s :: _ -> s.t0 | [] -> 0.0 in
  Out_channel.with_open_bin path (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"parent\":%d,\"op\":%d,\"name\":%S,\"kind\":%S,\"start_us\":%.3f,\"end_us\":%.3f,\"words\":%.0f}\n"
            s.id s.parent s.op s.name (kind_name s.kind)
            (1e6 *. (s.t0 -. origin))
            (1e6 *. (s.t1 -. origin))
            s.words)
        all)
