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

type solver = [ `Reuse | `Refactor ]

type solve_path = [ `Reused | `Rank_update of int | `Refactor ]

exception Golden_run_failed of string

let max_element_current netlist solution =
  List.fold_left
    (fun acc (e : Circuit.Element.t) ->
      Float.max acc (Float.abs (Circuit.Dc.element_current solution e.Circuit.Element.id)))
    0.0
    (Circuit.Netlist.elements netlist)

(* The golden run and everything derived from it, computed once and
   shared — across the repeated single classifications of the "delve into
   a component" workflow, and (read-only) across the domains of the
   parallel analysis.  Under the default [`Reuse] solver this includes
   the golden MNA factorisation, which every injection then re-solves
   against via a low-rank update instead of refactorising. *)
type prepared = {
  p_options : options;
  p_netlist : Circuit.Netlist.t;
  (* Some iff the solver is [`Reuse]. *)
  p_factors : Circuit.Dc.golden option;
  p_golden : Circuit.Dc.solution;
  p_golden_max_current : float;
  p_golden_readings : (string * float) list;  (* monitored, in sensor order *)
}

let prepare ?(options = default_options) ?(solver = `Reuse) netlist =
  let fail e = raise (Golden_run_failed (Format.asprintf "%a" Circuit.Dc.pp_error e)) in
  let factors, golden =
    match solver with
    | `Reuse -> (
        match Circuit.Dc.factorise (Circuit.Dc.prepare netlist) with
        | Ok g -> (Some g, Circuit.Dc.golden_solution g)
        | Error e -> fail e)
    | `Refactor -> (
        match Circuit.Dc.analyse netlist with
        | Ok s -> (None, s)
        | Error e -> fail e)
  in
  let monitored readings =
    match options.monitored_sensors with
    | None -> readings
    | Some ids ->
        List.filter (fun (id, _) -> List.exists (String.equal id) ids) readings
  in
  {
    p_options = options;
    p_netlist = netlist;
    p_factors = factors;
    p_golden = golden;
    p_golden_max_current = max_element_current netlist golden;
    p_golden_readings = monitored (Circuit.Dc.all_sensor_readings golden);
  }

(* Compare faulty sensor readings against golden; return the worst
   offending sensor when the deviation exceeds the thresholds.  The
   faulty readings are indexed once — the previous per-golden-reading
   [List.assoc_opt] made this O(sensors²). *)
let compare_readings options golden_readings faulty =
  let faulty_readings = Hashtbl.create 16 in
  List.iter
    (fun (sensor, f) ->
      (* First reading wins, matching [List.assoc_opt] on duplicates. *)
      if not (Hashtbl.mem faulty_readings sensor) then
        Hashtbl.add faulty_readings sensor f)
    (Circuit.Dc.all_sensor_readings faulty);
  List.fold_left
    (fun acc (sensor, g) ->
      match Hashtbl.find_opt faulty_readings sensor with
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

(* The faulted solve itself: the low-rank re-solve against the golden
   factors under [`Reuse], or a from-scratch assemble + factorise of the
   faulted netlist under [`Refactor]. *)
let faulted_solution p ~on_solved ~element_id fault =
  match p.p_factors with
  | Some g ->
      Circuit.Dc.inject
        ~on_path:(fun path -> on_solved (path :> solve_path))
        g ~element_id fault
  | None -> (
      let faulted = Circuit.Fault.inject p.p_netlist ~element_id fault in
      on_solved `Refactor;
      Circuit.Dc.analyse faulted)

let classify_prepared ?(on_solved = fun (_ : solve_path) -> ()) p ~element_id
    fault =
  let options = p.p_options in
  match faulted_solution p ~on_solved ~element_id fault with
  | exception Circuit.Fault.Not_applicable { reason; _ } ->
      `Simulation_failed (Printf.sprintf "fault not applicable: %s" reason)
  | Error e -> `Simulation_failed (Format.asprintf "%a" Circuit.Dc.pp_error e)
  | Ok solution -> (
      let plausible =
        match options.overcurrent_factor with
        | None -> true
        | Some factor ->
            (* Element ids — and therefore the set of currents to bound —
               are unchanged by faults, so the golden netlist indexes the
               faulted solution too. *)
            max_element_current p.p_netlist solution
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

let classify_single ?(options = default_options) ?solver netlist ~element_id
    fault =
  classify_prepared (prepare ~options ?solver netlist) ~element_id fault

type injection = string * float * Reliability.Reliability_model.failure_mode

(* Enumerate the (element, failure-mode) injections — cheap, and it fixes
   the row order before anything runs on the pool.  Exposed so the
   batch-fleet driver can flatten several variants' injections into one
   task list. *)
let enumerate ?(options = default_options) ?(element_types = []) netlist
    reliability =
  let type_of (e : Circuit.Element.t) =
    match List.assoc_opt e.Circuit.Element.id element_types with
    | Some t -> t
    | None -> Circuit.Element.kind_name e.Circuit.Element.kind
  in
  List.concat_map
    (fun (e : Circuit.Element.t) ->
      let id = e.Circuit.Element.id in
      if List.exists (String.equal id) options.exclude then []
      else
        match Reliability.Reliability_model.find reliability (type_of e) with
        | None -> []
        | Some entry ->
            let fit = entry.Reliability.Reliability_model.fit in
            List.map
              (fun (fm : Reliability.Reliability_model.failure_mode) ->
                (id, fit, fm))
              entry.Reliability.Reliability_model.failure_modes)
    (Circuit.Netlist.elements netlist)

let compute_row ?on_classified ?on_solved p
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
      match classify_prepared ?on_solved p ~element_id:id fault with
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
   consulted from pool domains, so it must be thread-safe. *)
let injection_row ?reuse ?on_classified ?on_solved p
    (((id, _, fm) : injection) as inj) =
  match reuse with
  | None -> compute_row ?on_classified ?on_solved p inj
  | Some f -> (
      match
        f ~component:id ~failure_mode:fm.Reliability.Reliability_model.fm_name
      with
      | Some row -> row
      | None -> compute_row ?on_classified ?on_solved p inj)

let cost_key = "fmea.injection"

let analyse ?(options = default_options) ?(element_types = []) ?solver
    ?prepared ?reuse ?on_classified ?on_solved netlist reliability =
  let p =
    match prepared with Some p -> p | None -> prepare ~options ?solver netlist
  in
  let injections = enumerate ~options ~element_types netlist reliability in
  (* One DC solve per injection, the golden solution shared read-only;
     the cost model decides whether this batch is worth the pool at all
     (a handful of rank-1 re-solves is not). *)
  let rows =
    Exec.scheduled_map ~key:cost_key
      (injection_row ?reuse ?on_classified ?on_solved p)
      injections
  in
  { Table.system_name = Circuit.Netlist.name netlist; rows }
