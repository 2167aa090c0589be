type options = {
  threshold_rel : float;
  threshold_abs : float;
  exclude : string list;
  overcurrent_factor : float option;
  monitored_sensors : string list option;
}

let default_options =
  {
    threshold_rel = 0.2;
    threshold_abs = 1e-9;
    exclude = [];
    overcurrent_factor = Some 8.0;
    monitored_sensors = None;
  }

type element_types = (string * string) list

type solve_path = [ `Reused | `Rank_update of int ]

exception Golden_run_failed of string

(* Element ids — and therefore the set of currents to bound — are
   unchanged by faults, and so are element indices: a golden and a
   faulted solution are read the same way. *)
let max_element_current solution =
  let m = ref 0.0 in
  for i = 0 to Circuit.Dc.element_count solution - 1 do
    m := Float.max !m (Float.abs (Circuit.Dc.element_current_at solution i))
  done;
  !m

(* The golden run and everything derived from it, computed once and
   shared — across the repeated single classifications of the "delve into
   a component" workflow, and (read-only) across the domains of the
   parallel analysis.  This includes the golden MNA factorisation, which
   every injection then re-solves against via a low-rank update instead
   of refactorising. *)
type prepared = {
  p_options : options;
  p_factors : Circuit.Dc.golden;
  p_golden_max_current : float;
  (* Monitored sensors in sensor order: id, element index, golden
     reading. *)
  p_golden_readings : (string * int * float) array;
}

let prepare ?(options = default_options) netlist =
  let factors =
    match Circuit.Dc.factorise (Circuit.Dc.prepare netlist) with
    | Ok g -> g
    | Error e ->
        raise (Golden_run_failed (Format.asprintf "%a" Circuit.Dc.pp_error e))
  in
  let golden = Circuit.Dc.golden_solution factors in
  let monitored id =
    match options.monitored_sensors with
    | None -> true
    | Some ids -> List.exists (String.equal id) ids
  in
  {
    p_options = options;
    p_factors = factors;
    p_golden_max_current = max_element_current golden;
    p_golden_readings =
      Array.of_list
        (List.filter_map
           (fun (id, g) ->
             if monitored id then
               Some (id, Circuit.Dc.element_index golden id, g)
             else None)
           (Circuit.Dc.all_sensor_readings golden));
  }

(* Compare faulty sensor readings against golden; return the worst
   offending sensor when the deviation exceeds the thresholds.  Each
   sensor is read by its element index. *)
let compare_readings options golden_readings faulty =
  Array.fold_left
    (fun acc (sensor, idx, g) ->
      match Circuit.Dc.sensor_reading_at faulty idx with
      | None ->
          (* The fault removed the sensor itself: the observation channel
             is lost, which violates the monitoring goal outright. *)
          Some (sensor ^ " (observation lost)", 1.0)
      | Some f ->
          let abs_diff = Float.abs (f -. g) in
          let rel_diff = abs_diff /. Float.max (Float.abs g) options.threshold_abs in
          if abs_diff > options.threshold_abs && rel_diff > options.threshold_rel
          then
            match acc with
            | Some (_, worst) when worst >= rel_diff -> acc
            | Some _ | None -> Some (sensor, rel_diff)
          else acc)
    None golden_readings

let golden_newton_iterations p =
  Circuit.Dc.newton_iterations (Circuit.Dc.golden_solution p.p_factors)

let classify_prepared ?(on_solved = fun (_ : solve_path) -> ())
    ?(on_newton = ignore) p ~element_id fault =
  let options = p.p_options in
  match Circuit.Dc.inject ~on_path:on_solved p.p_factors ~element_id fault with
  | exception Circuit.Fault.Not_applicable { reason; _ } ->
      `Simulation_failed (Printf.sprintf "fault not applicable: %s" reason)
  | Error e -> `Simulation_failed (Format.asprintf "%a" Circuit.Dc.pp_error e)
  | Ok solution -> (
      on_newton (Circuit.Dc.newton_iterations solution);
      let plausible =
        match options.overcurrent_factor with
        | None -> true
        | Some factor ->
            max_element_current solution
            <= factor *. Float.max p.p_golden_max_current 1e-12
      in
      if not plausible then
        `Excluded
          "non-physical operating point (supply overcurrent) — violates \
           the stable-supply assumption; excluded from classification"
      else
        match compare_readings options p.p_golden_readings solution with
        | Some (sensor, rel) ->
            `Safety_related
              (Printf.sprintf "%s deviates by %.0f%%" sensor (100.0 *. rel))
        | None -> `No_effect)

let classify_single ?(options = default_options) netlist ~element_id fault =
  classify_prepared (prepare ~options netlist) ~element_id fault

type injection = string * float * Reliability.Reliability_model.failure_mode

let component_types ?(element_types = []) netlist =
  let types = Hashtbl.create 64 in
  (* The first binding of an id wins, as with [List.assoc]. *)
  List.iter
    (fun (id, ty) -> if not (Hashtbl.mem types id) then Hashtbl.add types id ty)
    element_types;
  List.iter
    (fun (e : Circuit.Element.t) ->
      let id = e.Circuit.Element.id in
      if not (Hashtbl.mem types id) then
        Hashtbl.add types id (Circuit.Element.kind_name e.Circuit.Element.kind))
    (Circuit.Netlist.elements netlist);
  types

(* Enumerate the (element, failure-mode) injections — cheap, and it fixes
   the row order before anything runs in parallel.  Exposed so the
   batch-fleet driver can flatten several variants' injections into one
   task list.  Component types repeat across elements: each is looked up
   in the reliability model once. *)
let enumerate ?(options = default_options) ?element_types netlist reliability
    =
  let types = component_types ?element_types netlist in
  let entries = Hashtbl.create 16 in
  let entry_of ty =
    match Hashtbl.find_opt entries ty with
    | Some entry -> entry
    | None ->
        let entry = Reliability.Reliability_model.find reliability ty in
        Hashtbl.add entries ty entry;
        entry
  in
  List.concat_map
    (fun (e : Circuit.Element.t) ->
      let id = e.Circuit.Element.id in
      if List.exists (String.equal id) options.exclude then []
      else
        match entry_of (Hashtbl.find types id) with
        | None -> []
        | Some entry ->
            let fit = entry.Reliability.Reliability_model.fit in
            List.map
              (fun (fm : Reliability.Reliability_model.failure_mode) ->
                (id, fit, fm))
              entry.Reliability.Reliability_model.failure_modes)
    (Circuit.Netlist.elements netlist)

let compute_row ?on_classified ?on_solved ?on_newton p
    ((id, fit, (fm : Reliability.Reliability_model.failure_mode)) : injection)
    =
  let name = fm.Reliability.Reliability_model.fm_name in
  let dist = fm.Reliability.Reliability_model.distribution_pct in
  let mk =
    Table.make_row ~component:id ~component_fit:fit ~failure_mode:name
      ~distribution_pct:dist
  in
  match fm.Reliability.Reliability_model.fault with
  | None ->
      mk
        ~warning:
          (Printf.sprintf
             "no fault model for failure mode '%s' — review manually" name)
        ~safety_related:false ()
  | Some fault -> (
      (match on_classified with Some hook -> hook () | None -> ());
      match classify_prepared ?on_solved ?on_newton p ~element_id:id fault with
      | `Safety_related impact -> mk ~impact ~safety_related:true ()
      | `No_effect ->
          mk ~impact:"sensor readings within threshold" ~safety_related:false
            ()
      | `Excluded why -> mk ~warning:why ~safety_related:false ()
      | `Simulation_failed why ->
          mk
            ~warning:(Printf.sprintf "simulation failed: %s" why)
            ~safety_related:false ())

(* The reuse hook (when provided by the incremental engine) is asked
   first; a reused row skips its faulted solve entirely.  The hook is
   consulted from worker domains, so it must be thread-safe. *)
let injection_row ?reuse ?on_classified ?on_solved ?on_newton p
    (((id, _, fm) : injection) as inj) =
  match reuse with
  | None -> compute_row ?on_classified ?on_solved ?on_newton p inj
  | Some f -> (
      match
        f ~component:id ~failure_mode:fm.Reliability.Reliability_model.fm_name
      with
      | Some row -> row
      | None -> compute_row ?on_classified ?on_solved ?on_newton p inj)

let cost_key = "fmea.injection"

let analyse ?(options = default_options) ?(element_types = []) ?prepared
    ?reuse ?on_classified ?on_solved ?on_newton netlist reliability =
  let p = match prepared with Some p -> p | None -> prepare ~options netlist in
  let injections = enumerate ~options ~element_types netlist reliability in
  (* One DC solve per injection, the golden solution shared read-only;
     the cost model decides whether this batch is worth workers at all
     (a handful of rank-1 re-solves is not). *)
  let rows =
    Exec.scheduled_map ~key:cost_key
      (injection_row ?reuse ?on_classified ?on_solved ?on_newton p)
      injections
  in
  { Table.system_name = Circuit.Netlist.name netlist; rows }
