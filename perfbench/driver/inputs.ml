(* Seeded inputs.  Every model the program receives is written here from
   the workload seed (or, for System B and the PSU, read from the fixed
   files in perfbench/inputs and edited from the seed), so the same seed
   gives byte-identical inputs on every commit. *)

let rng seed salt = Random.State.make [| seed; salt |]
let uniform st lo hi = lo +. Random.State.float st (hi -. lo)

let read path = In_channel.with_open_bin path In_channel.input_all

let write path text =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text)

(* ---------- multi-rail block diagrams ---------- *)

(* A source feeding [n] parallel rails, each a series diode, inductor,
   current sensor and load with a shunt capacitor to ground.  Closed
   forms from this structure (independent of any analysis code): with
   DC1 excluded the FMEA has 10 rows per rail (five two-mode parts), and
   the fault tree has 4^n + 1 minimal cut sets (one of the four series
   parts on every rail, or the source).  The MNA system has 5n + 2
   unknowns, so 8 rails (42) runs the dense backend and 32 rails (162)
   the sparse one, on either side of Circuit.Dc's Auto threshold.

   The seed sets the inductances and capacitances (and, in
   [rails_reliability], the FITs); the source voltage and the load
   resistances, which fix the DC operating point, follow a fixed pattern.
   Seeding those too was measured to move the cost of one 32-rail fmea up
   to 2x between seeds (a +-2 % change of the loads changes the diode
   Newton work), which would make the benchmark measure its seeds rather
   than the program. *)
let rails_design ~seed ~rails =
  let st = rng seed (1000 + rails) in
  let b = Buffer.create 4096 in
  let p fmt = Printf.bprintf b fmt in
  p "diagram rails%d {\n" rails;
  p "  block DC1 : vsource { volts = 5; }\n";
  p "  block GND1 : ground ports (conserving a);\n";
  for r = 1 to rails do
    p "  block D%d : diode;\n" r;
    p "  block L%d : inductor { henries = %.4g; }\n" r (uniform st 5e-4 2e-3);
    p "  block C%d : capacitor { farads = %.4g; }\n" r (uniform st 5e-6 2e-5);
    p "  block CS%d : current_sensor;\n" r;
    p "  block LD%d : load { ohms = %d; }\n" r (60 + (10 * (r mod 8)))
  done;
  p "  connect DC1.b -> GND1.a;\n";
  for r = 1 to rails do
    p "  connect DC1.a -> D%d.a;\n" r;
    p "  connect D%d.b -> L%d.a;\n" r r;
    p "  connect L%d.b -> C%d.a;\n" r r;
    p "  connect L%d.b -> CS%d.a;\n" r r;
    p "  connect CS%d.b -> LD%d.a;\n" r r;
    p "  connect LD%d.b -> GND1.a;\n" r;
    p "  connect C%d.b -> GND1.a;\n" r
  done;
  p "}\n";
  Buffer.contents b

let rails_fmea_rows rails = 10 * rails

let rails_cut_sets rails =
  let rec pow a k = if k = 0 then 1 else a * pow a (k - 1) in
  pow 4 rails + 1

(* Reliability model for the rail designs, FITs scaled from the seed. *)
let rails_reliability ~seed =
  let st = rng seed 7 in
  let fit base = base *. uniform st 0.8 1.2 in
  String.concat ""
    [
      "Component,FIT,Failure_Mode,Distribution\n";
      Printf.sprintf "diode,%.4g,Open,30\n,,Short,70\n" (fit 10.0);
      Printf.sprintf "capacitor,%.4g,Open,30\n,,Short,70\n" (fit 2.0);
      Printf.sprintf "inductor,%.4g,Open,30\n,,Short,70\n" (fit 15.0);
      Printf.sprintf "current_sensor,%.4g,Open,60\n,,Short,40\n" (fit 8.0);
      Printf.sprintf "load,%.4g,Open,50\n,,Short,50\n" (fit 20.0);
      Printf.sprintf "vsource,%.4g,Loss,100\n" (fit 50.0);
    ]

(* ---------- Open-PSA fault trees ---------- *)

(* Written here rather than through the library's exporter, so the input
   text cannot move when the program changes. *)

type tree = {
  xml : string;
  mission_hours : float;
  exact : float;  (** closed-form top probability *)
}

let failure_probability rate_per_hour mission = -.Float.expm1 (-.rate_per_hour *. mission)

let opsa ~name ~gates ~events =
  let b = Buffer.create 8192 in
  Printf.bprintf b
    "<?xml version=\"1.0\"?>\n<opsa-mef name=\"%s\"><define-fault-tree name=\"%s\">"
    name name;
  List.iter (Buffer.add_string b) gates;
  List.iter
    (fun (id, rate) ->
      Printf.bprintf b
        "<define-basic-event name=\"%s\"><exponential><float value=\"%.17g\"/></exponential></define-basic-event>"
        id rate)
    events;
  Buffer.add_string b "</define-fault-tree></opsa-mef>\n";
  Buffer.contents b

let event_ref id = Printf.sprintf "<basic-event name=\"%s\"/>" id

(* Rates within 1 % of 100 FIT: the sampling cost grows with the share of
   trials in which events and the top event fail, so wider seeded rates
   would make the per-op cost depend on the seed. *)
let rates st prefix n =
  List.init n (fun i -> (Printf.sprintf "%s%d" prefix i, uniform st 99e-9 101e-9))

(* 2-out-of-n vote: drives the k-of-n carry-save tape.  Exact value by the
   Poisson-binomial recurrence over the independent events. *)
let vote ~seed ~n ~mission_hours =
  let events = rates (rng seed 24) "e" n in
  let gate =
    Printf.sprintf "<define-gate name=\"top\"><atleast min=\"2\">%s</atleast></define-gate>"
      (String.concat "" (List.map (fun (id, _) -> event_ref id) events))
  in
  (* q.(j): probability that exactly j events (j = 0, 1) have failed *)
  let q0, q1 =
    List.fold_left
      (fun (q0, q1) (_, rate) ->
        let p = failure_probability rate mission_hours in
        (q0 *. (1.0 -. p), (q1 *. (1.0 -. p)) +. (q0 *. p)))
      (1.0, 0.0) events
  in
  {
    xml = opsa ~name:(Printf.sprintf "vote2of%d" n) ~gates:[ gate ] ~events;
    mission_hours;
    exact = 1.0 -. q0 -. q1;
  }

(* AND of k two-way ORs: drives the AND/OR tape. *)
let series_parallel ~seed ~k ~mission_hours =
  let st = rng seed 12 in
  let a = rates st "a" k and b = rates st "b" k in
  let pairs = List.combine a b in
  let top =
    Printf.sprintf "<define-gate name=\"top\"><and>%s</and></define-gate>"
      (String.concat ""
         (List.init k (fun i -> Printf.sprintf "<gate name=\"s%d\"/>" i)))
  in
  let ors =
    List.mapi
      (fun i ((ia, _), (ib, _)) ->
        Printf.sprintf "<define-gate name=\"s%d\"><or>%s%s</or></define-gate>" i
          (event_ref ia) (event_ref ib))
      pairs
  in
  let exact =
    List.fold_left
      (fun acc ((_, ra), (_, rb)) ->
        let pa = failure_probability ra mission_hours
        and pb = failure_probability rb mission_hours in
        acc *. (1.0 -. ((1.0 -. pa) *. (1.0 -. pb))))
      1.0 pairs
  in
  {
    xml = opsa ~name:(Printf.sprintf "sp%d" k) ~gates:(top :: ors) ~events:(a @ b);
    mission_hours;
    exact;
  }

(* ---------- System B edit stream ---------- *)

let lines s = String.split_on_char '\n' s

(* The reliability CSV with one FIT column per component type:
   [render fits] substitutes the current FIT of every type. *)
type reliability_template = {
  rows : string list list;  (** CSV rows, header first *)
  type_rows : int array;  (** row index of each component type *)
  base_fit : float array;
}

let reliability_template text =
  let rows =
    lines text
    |> List.filter (fun l -> String.trim l <> "")
    |> List.map (String.split_on_char ',')
  in
  let type_rows =
    List.mapi (fun i r -> (i, r)) rows
    |> List.filter_map (fun (i, r) ->
           match r with c :: _ when i > 0 && c <> "" -> Some i | _ -> None)
    |> Array.of_list
  in
  let base_fit =
    Array.map (fun i -> float_of_string (List.nth (List.nth rows i) 1)) type_rows
  in
  { rows; type_rows; base_fit }

let render_reliability t fits =
  let b = Buffer.create 1024 in
  List.iteri
    (fun i row ->
      let row =
        match Array.find_index (( = ) i) t.type_rows with
        | Some k -> List.mapi (fun j f -> if j = 1 then Printf.sprintf "%.6g" fits.(k) else f) row
        | None -> row
      in
      Buffer.add_string b (String.concat "," row);
      Buffer.add_char b '\n')
    t.rows;
  Buffer.contents b

(* The diagram text cut at the [ohms = V;] line of every load block:
   [render ohms] glues the pieces back with the current values. *)
type diagram_template = {
  pieces : string array;  (** one more than there are loads *)
  loads : string array;
  base_ohms : float array;
}

let diagram_template text =
  let pieces = ref [] and loads = ref [] and ohms = ref [] in
  let cur = Buffer.create 4096 in
  let block = ref None in
  List.iter
    (fun l ->
      let t = String.trim l in
      (match Scanf.sscanf_opt t "block %s : load {" Fun.id with
      | Some id -> block := Some id
      | None -> if t = "}" then block := None);
      match (!block, Scanf.sscanf_opt t "ohms = %f;" Fun.id) with
      | Some id, Some v ->
          Buffer.add_string cur "    ohms = ";
          pieces := Buffer.contents cur :: !pieces;
          Buffer.clear cur;
          Buffer.add_string cur ";\n";
          loads := id :: !loads;
          ohms := v :: !ohms
      | _ ->
          Buffer.add_string cur l;
          Buffer.add_char cur '\n')
    (lines text);
  (* [lines] leaves an empty last element after the final newline *)
  let last = Buffer.contents cur in
  let last = String.sub last 0 (String.length last - 1) in
  {
    pieces = Array.of_list (List.rev (last :: !pieces));
    loads = Array.of_list (List.rev !loads);
    base_ohms = Array.of_list (List.rev !ohms);
  }

let render_diagram t ohms =
  let b = Buffer.create 8192 in
  Array.iteri
    (fun i piece ->
      Buffer.add_string b piece;
      if i < Array.length ohms then Buffer.add_string b (Printf.sprintf "%.6g" ohms.(i)))
    t.pieces;
  Buffer.contents b

(* One edit of the fixed 8-op cycle. *)
type edit =
  | Set_fit of int * float  (** component type index, new FIT *)
  | Set_ohms of int * float  (** load index, new ohms *)
  | Replay

(* rel, diagram, rel, replay, rel, diagram, rel, replay: the diagram edits
   (golden re-factorisation, no row reuse) are the heaviest class and
   make up 25 % of the ops, so p90 falls inside that class. *)
let cycle = [| `Rel; `Diag; `Rel; `Replay; `Rel; `Diag; `Rel; `Replay |]

(* The edit stream: types and loads rotate, values come from the seed.
   Every value is fresh, so no two diagram states repeat within a run. *)
let edit_stream ~seed ~(rel : reliability_template) ~(diag : diagram_template) =
  let st = rng seed 8 in
  let n_rel = ref 0 and n_diag = ref 0 in
  fun i ->
    match cycle.(i mod Array.length cycle) with
    | `Rel ->
        let k = !n_rel mod Array.length rel.base_fit in
        incr n_rel;
        Set_fit (k, rel.base_fit.(k) *. uniform st 0.75 1.25)
    | `Diag ->
        let k = !n_diag mod Array.length diag.loads in
        incr n_diag;
        Set_ohms (k, diag.base_ohms.(k) *. uniform st 0.8 1.2)
    | `Replay -> Replay
