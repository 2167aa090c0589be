type waveform = float -> float

type result = {
  times : float array;
  node_traces : (string, float array) Hashtbl.t;
  element_traces : (string, float array) Hashtbl.t;
  sensor_ids : (string * [ `Current | `Voltage of string * string ]) list;
}

type initial_state = From_dc | Zero_state

let closed_switch_resistance = 1e-3

(* The DC engine's defaults: node-to-ground conductance, and the Newton
   iteration budget of one time step. *)
let gmin = 1e-9
let max_iterations = 200

(* Per-step unknowns: node voltages plus branch currents for voltage
   sources and current sensors.  Inductors — branch elements at DC — are
   companion conductances here, so the layouts differ deliberately. *)
let simulate ?(initial = From_dc) ?(waveforms = []) netlist ~dt ~duration =
  if dt <= 0.0 then invalid_arg "Transient.simulate: non-positive dt";
  if duration <= 0.0 then invalid_arg "Transient.simulate: non-positive duration";
  let elements = Netlist.elements netlist in
  let node_names = Netlist.nodes netlist in
  let node_index = Hashtbl.create 16 in
  List.iteri (fun i n -> Hashtbl.add node_index n i) node_names;
  let n_nodes = List.length node_names in
  let branch_elements =
    List.filter
      (fun (e : Element.t) ->
        match e.Element.kind with
        | Element.Vsource _ | Element.Current_sensor -> true
        | _ -> false)
      elements
  in
  let branch_index = Hashtbl.create 8 in
  List.iteri
    (fun i (e : Element.t) -> Hashtbl.add branch_index e.Element.id (n_nodes + i))
    branch_elements;
  let size = n_nodes + List.length branch_elements in
  let node n =
    if String.equal n Netlist.ground then None else Hashtbl.find_opt node_index n
  in
  let steps = int_of_float (Float.round (duration /. dt)) in
  let steps = Int.max steps 1 in
  let times = Array.init (steps + 1) (fun i -> float_of_int i *. dt) in
  (* History state. *)
  let v_prev = Array.make size 0.0 in
  let cap_v_prev : (string, float) Hashtbl.t = Hashtbl.create 8 in
  let ind_i_prev : (string, float) Hashtbl.t = Hashtbl.create 8 in
  (* Initialise state. *)
  let init_result =
    match initial with
    | Zero_state ->
        List.iter
          (fun (e : Element.t) ->
            match e.Element.kind with
            | Element.Capacitor _ -> Hashtbl.replace cap_v_prev e.Element.id 0.0
            | Element.Inductor _ -> Hashtbl.replace ind_i_prev e.Element.id 0.0
            | _ -> ())
          elements;
        Ok ()
    | From_dc -> (
        match Dc.analyse ~gmin netlist with
        | Error e -> Error e
        | Ok dc ->
            List.iteri
              (fun i n -> v_prev.(i) <- Dc.node_voltage dc n)
              node_names;
            List.iter
              (fun (e : Element.t) ->
                match e.Element.kind with
                | Element.Capacitor _ ->
                    Hashtbl.replace cap_v_prev e.Element.id
                      (Dc.node_voltage dc e.Element.node_a
                      -. Dc.node_voltage dc e.Element.node_b)
                | Element.Inductor _ ->
                    Hashtbl.replace ind_i_prev e.Element.id
                      (Dc.element_current dc e.Element.id)
                | _ -> ())
              elements;
            Ok ())
  in
  match init_result with
  | Error e -> Error e
  | Ok () ->
      let source_value (e : Element.t) nominal t =
        match List.assoc_opt e.Element.id waveforms with
        | Some w -> w t
        | None -> nominal
      in
      let node_v guess n =
        match node n with Some i -> guess.(i) | None -> 0.0
      in
      let build guess t =
        let a = Numeric.Matrix.create size size in
        let b = Numeric.Vector.create size in
        let stamp_conductance na nb g =
          (match node na with
          | Some i -> Numeric.Matrix.add_to a i i g
          | None -> ());
          (match node nb with
          | Some j -> Numeric.Matrix.add_to a j j g
          | None -> ());
          match (node na, node nb) with
          | Some i, Some j ->
              Numeric.Matrix.add_to a i j (-.g);
              Numeric.Matrix.add_to a j i (-.g)
          | _ -> ()
        in
        let stamp_current_source na nb amps =
          (match node na with
          | Some i -> b.(i) <- b.(i) -. amps
          | None -> ());
          match node nb with
          | Some j -> b.(j) <- b.(j) +. amps
          | None -> ()
        in
        let stamp_voltage_branch e_id na nb volts =
          let k = Hashtbl.find branch_index e_id in
          (match node na with
          | Some i ->
              Numeric.Matrix.add_to a i k 1.0;
              Numeric.Matrix.add_to a k i 1.0
          | None -> ());
          (match node nb with
          | Some j ->
              Numeric.Matrix.add_to a j k (-1.0);
              Numeric.Matrix.add_to a k j (-1.0)
          | None -> ());
          b.(k) <- b.(k) +. volts
        in
        List.iter
          (fun (e : Element.t) ->
            let na = e.Element.node_a and nb = e.Element.node_b in
            match e.Element.kind with
            | Element.Resistor r | Element.Load r ->
                stamp_conductance na nb (1.0 /. r)
            | Element.Switch true ->
                stamp_conductance na nb (1.0 /. closed_switch_resistance)
            | Element.Switch false | Element.Voltage_sensor -> ()
            | Element.Isource amps ->
                stamp_current_source na nb (source_value e amps t)
            | Element.Vsource volts ->
                stamp_voltage_branch e.Element.id na nb (source_value e volts t)
            | Element.Current_sensor ->
                stamp_voltage_branch e.Element.id na nb 0.0
            | Element.Capacitor c ->
                (* Backward Euler: i = C/h (v_n − v_prev). *)
                let g = c /. dt in
                let vp = Hashtbl.find cap_v_prev e.Element.id in
                stamp_conductance na nb g;
                stamp_current_source na nb (-.g *. vp)
            | Element.Inductor l ->
                (* Backward Euler: i_n = i_prev + h/L · v_n. *)
                let g = dt /. l in
                let ip = Hashtbl.find ind_i_prev e.Element.id in
                stamp_conductance na nb g;
                stamp_current_source na nb ip
            | Element.Diode p ->
                let v = node_v guess na -. node_v guess nb in
                let g = Float.max (Dc.diode_conductance p v) 1e-12 in
                let i_eq = Dc.diode_current p v -. (g *. v) in
                stamp_conductance na nb g;
                stamp_current_source na nb i_eq)
          elements;
        for i = 0 to n_nodes - 1 do
          Numeric.Matrix.add_to a i i gmin
        done;
        (a, b)
      in
      let has_diodes =
        List.exists
          (fun (e : Element.t) ->
            match e.Element.kind with Element.Diode _ -> true | _ -> false)
          elements
      in
      let solve_step t =
        let rec newton guess iter =
          if iter > max_iterations then Error (Dc.No_convergence max_iterations)
          else
            let a, b = build guess t in
            match Numeric.Lu.solve a b with
            | exception Numeric.Lu.Singular k ->
                Error
                  (Dc.Singular_system
                     (Printf.sprintf "pivot failure at unknown %d" k))
            | x ->
                if not has_diodes then Ok x
                else begin
                  let reltol = 1e-6 and vntol = 1e-6 in
                  let converged = ref true in
                  for i = 0 to size - 1 do
                    if
                      Float.abs (x.(i) -. guess.(i))
                      > (reltol *. Float.abs x.(i)) +. vntol
                    then converged := false
                  done;
                  if !converged then Ok x else newton x (iter + 1)
                end
        in
        newton (Array.copy v_prev) 0
      in
      (* Trace storage. *)
      let node_traces = Hashtbl.create 16 in
      List.iter
        (fun n -> Hashtbl.add node_traces n (Array.make (steps + 1) 0.0))
        node_names;
      Hashtbl.add node_traces Netlist.ground (Array.make (steps + 1) 0.0);
      let element_traces = Hashtbl.create 16 in
      List.iter
        (fun (e : Element.t) ->
          Hashtbl.add element_traces e.Element.id (Array.make (steps + 1) 0.0))
        elements;
      let sensor_ids =
        List.filter_map
          (fun (e : Element.t) ->
            match e.Element.kind with
            | Element.Current_sensor -> Some (e.Element.id, `Current)
            | Element.Voltage_sensor ->
                Some (e.Element.id, `Voltage (e.Element.node_a, e.Element.node_b))
            | _ -> None)
          elements
      in
      let record step x =
        List.iteri
          (fun i n -> (Hashtbl.find node_traces n).(step) <- x.(i))
          node_names;
        let v n =
          match node n with Some i -> x.(i) | None -> 0.0
        in
        List.iter
          (fun (e : Element.t) ->
            let na = e.Element.node_a and nb = e.Element.node_b in
            let current =
              match e.Element.kind with
              | Element.Resistor r | Element.Load r -> (v na -. v nb) /. r
              | Element.Switch true -> (v na -. v nb) /. closed_switch_resistance
              | Element.Switch false | Element.Voltage_sensor -> 0.0
              | Element.Isource amps -> source_value e amps times.(step)
              | Element.Diode p -> Dc.diode_current p (v na -. v nb)
              | Element.Capacitor c ->
                  let vp = Hashtbl.find cap_v_prev e.Element.id in
                  c /. dt *. (v na -. v nb -. vp)
              | Element.Inductor l ->
                  Hashtbl.find ind_i_prev e.Element.id
                  +. (dt /. l *. (v na -. v nb))
              | Element.Vsource _ | Element.Current_sensor ->
                  x.(Hashtbl.find branch_index e.Element.id)
            in
            (Hashtbl.find element_traces e.Element.id).(step) <- current)
          elements
      in
      let advance_state x =
        List.iter
          (fun (e : Element.t) ->
            let v n = match node n with Some i -> x.(i) | None -> 0.0 in
            match e.Element.kind with
            | Element.Capacitor _ ->
                Hashtbl.replace cap_v_prev e.Element.id
                  (v e.Element.node_a -. v e.Element.node_b)
            | Element.Inductor l ->
                let previous = Hashtbl.find ind_i_prev e.Element.id in
                Hashtbl.replace ind_i_prev e.Element.id
                  (previous
                  +. (dt /. l *. (v e.Element.node_a -. v e.Element.node_b)))
            | _ -> ())
          elements;
        Array.blit x 0 v_prev 0 size
      in
      (* Step 0 records the initial state. *)
      record 0 v_prev;
      let rec run step =
        if step > steps then
          Ok { times; node_traces; element_traces; sensor_ids }
        else
          match solve_step times.(step) with
          | Error e -> Error e
          | Ok x ->
              record step x;
              advance_state x;
              run (step + 1)
      in
      run 1

let times r = r.times

let node_voltage r n = Hashtbl.find r.node_traces n

let element_current r id = Hashtbl.find r.element_traces id

let sensor_trace r id =
  match List.assoc_opt id r.sensor_ids with
  | Some `Current -> Hashtbl.find r.element_traces id
  | Some (`Voltage (na, nb)) ->
      let va = Hashtbl.find r.node_traces na in
      let vb = Hashtbl.find r.node_traces nb in
      Array.init (Array.length va) (fun i -> va.(i) -. vb.(i))
  | None -> raise Not_found

let final_value trace =
  if Array.length trace = 0 then invalid_arg "Transient.final_value: empty";
  trace.(Array.length trace - 1)

let ripple trace =
  let n = Array.length trace in
  if n = 0 then 0.0
  else begin
    let from = n / 2 in
    let lo = ref trace.(from) and hi = ref trace.(from) in
    for i = from to n - 1 do
      lo := Float.min !lo trace.(i);
      hi := Float.max !hi trace.(i)
    done;
    !hi -. !lo
  end

let settling_time ~times trace ~tolerance =
  let final = final_value trace in
  let n = Array.length trace in
  let rec last_violation i =
    if i < 0 then None
    else if Float.abs (trace.(i) -. final) > tolerance then Some i
    else last_violation (i - 1)
  in
  match last_violation (n - 1) with
  | None -> Some times.(0)
  | Some i -> if i + 1 < n then Some times.(i + 1) else None
