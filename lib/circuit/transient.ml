type waveform = float -> float

type result = {
  times : float array;
  node_traces : (string, float array) Hashtbl.t;
  element_traces : (string, float array) Hashtbl.t;
  sensor_ids : (string * [ `Current | `Voltage of string * string ]) list;
}

type initial_state = From_dc | Zero_state

(* Backward Euler turns every reactive element into its companion: a
   conductance (C/h for a capacitor, h/L for an inductor) in parallel
   with a history current source (−(C/h)·v_prev, resp. i_prev).  The
   companion circuit is the netlist with each reactive element replaced
   by a resistor of the companion conductance, followed by one current
   source per reactive element.  Its matrix is the same at every step —
   only the sources change — so it is prepared once per run and each
   step re-solves it under new source values, Newton starting from the
   previous step's solution. *)
let simulate ?(initial = From_dc) ?(waveforms = []) netlist ~dt ~duration =
  let check what v =
    if not (Float.is_finite v && v > 0.0) then
      invalid_arg
        (Printf.sprintf "Transient.simulate: %s must be positive and finite (got %g)"
           what v)
  in
  check "dt" dt;
  check "duration" duration;
  let steps = Float.round (duration /. dt) in
  (* The traces hold steps + 1 samples. *)
  if not (steps < float_of_int Sys.max_array_length) then
    invalid_arg
      (Printf.sprintf "Transient.simulate: %g steps of %gs are too many" steps dt);
  let steps = Int.max (int_of_float steps) 1 in
  let times = Array.init (steps + 1) (fun i -> float_of_int i *. dt) in
  let elements = Array.of_list (Netlist.elements netlist) in
  let node_names = Netlist.nodes netlist in
  let source idx nominal t =
    match List.assoc_opt elements.(idx).Element.id waveforms with
    | Some w -> w t
    | None -> nominal
  in
  (* Per reactive element, at the end of the last step: v(a) − v(b) of a
     capacitor, the current of an inductor. *)
  let state = Array.make (Array.length elements) 0.0 in
  (* The netlist's elements with each reactive one as its companion
     resistor; the same records at every step. *)
  let resistive =
    Array.map
      (fun (e : Element.t) ->
        let resistor r = { e with Element.kind = Element.Resistor r } in
        match e.Element.kind with
        | Element.Capacitor c -> resistor (dt /. c)
        | Element.Inductor l -> resistor (l /. dt)
        | _ -> e)
      elements
  in
  let companion t =
    let own =
      Array.mapi
        (fun idx (e : Element.t) ->
          match e.Element.kind with
          | Element.Vsource v ->
              { e with Element.kind = Element.Vsource (source idx v t) }
          | Element.Isource a ->
              { e with Element.kind = Element.Isource (source idx a t) }
          | _ -> e)
        resistive
    in
    let history idx (e : Element.t) =
      let current amps =
        Some
          { e with Element.id = e.Element.id ^ "/history"; kind = Element.Isource amps }
      in
      match e.Element.kind with
      | Element.Capacitor c -> current (-.(c /. dt) *. state.(idx))
      | Element.Inductor _ -> current state.(idx)
      | _ -> None
    in
    Array.append own
      (Array.of_list
         (List.filter_map Fun.id (Array.to_list (Array.mapi history elements))))
  in
  let node_traces = Hashtbl.create 16 in
  List.iter
    (fun n -> Hashtbl.add node_traces n (Array.make (steps + 1) 0.0))
    (Netlist.ground :: node_names);
  let element_traces = Hashtbl.create 16 in
  Array.iter
    (fun (e : Element.t) ->
      Hashtbl.add element_traces e.Element.id (Array.make (steps + 1) 0.0))
    elements;
  (* Sample [step]: the node voltages, and each element's current given
     its port voltage; then the reactive state moves on. *)
  let record step voltage current =
    List.iter (fun n -> (Hashtbl.find node_traces n).(step) <- voltage n) node_names;
    Array.iteri
      (fun idx (e : Element.t) ->
        let v = voltage e.Element.node_a -. voltage e.Element.node_b in
        let i = current idx v in
        (Hashtbl.find element_traces e.Element.id).(step) <- i;
        match e.Element.kind with
        | Element.Capacitor _ -> state.(idx) <- v
        | Element.Inductor _ -> state.(idx) <- i
        | _ -> ())
      elements
  in
  (* Sample 0 is the initial state; its node voltages start the first
     step's Newton. *)
  let initial_voltage =
    match initial with
    | Zero_state ->
        record 0
          (fun _ -> 0.0)
          (fun idx _ ->
            match elements.(idx).Element.kind with
            | Element.Isource a -> source idx a 0.0
            | _ -> 0.0);
        Ok (fun _ -> 0.0)
    | From_dc ->
        Result.map
          (fun dc ->
            record 0 (Dc.node_voltage dc) (fun idx _ -> Dc.element_current_at dc idx);
            Dc.node_voltage dc)
          (Dc.analyse netlist)
  in
  (* The pattern does not depend on the source values. *)
  let system = Dc.prepare_elements ~node_names (companion times.(1)) in
  let rec run step guess =
    if step > steps then Ok ()
    else
      match Dc.solve_from (Dc.with_sources system (companion times.(step))) guess with
      | Error e -> Error e
      | Ok s ->
          record step (Dc.node_voltage s) (fun idx v ->
              match elements.(idx).Element.kind with
              | Element.Capacitor c -> c /. dt *. (v -. state.(idx))
              | Element.Inductor l -> state.(idx) +. (dt /. l *. v)
              | _ -> Dc.element_current_at s idx);
          run (step + 1) (Dc.unknowns s)
  in
  let sensor_ids =
    List.filter_map
      (fun (e : Element.t) ->
        match e.Element.kind with
        | Element.Current_sensor -> Some (e.Element.id, `Current)
        | Element.Voltage_sensor ->
            Some (e.Element.id, `Voltage (e.Element.node_a, e.Element.node_b))
        | _ -> None)
      (Array.to_list elements)
  in
  Result.bind initial_voltage (fun voltage ->
      (* Node voltages first, branch currents zero. *)
      let guess = Array.make (Dc.size system) 0.0 in
      List.iteri (fun i n -> guess.(i) <- voltage n) node_names;
      Result.map
        (fun () -> { times; node_traces; element_traces; sensor_ids })
        (run 1 guess))

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
