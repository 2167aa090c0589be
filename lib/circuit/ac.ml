type point = {
  frequency_hz : float;
  magnitude : float;
  magnitude_db : float;
  phase_deg : float;
}

let cx re = { Complex.re; im = 0.0 }

(* ---------- prepared sweeps ----------

   The real part of the AC system is the DC operating-point matrix of
   {!Dc.factorise}: its numbering, linear stamps, gmin and the diodes'
   small-signal conductances.  On top of it come the unit stimulus and,
   per frequency, the reactive entries — [jωC] at a capacitor's four node
   positions, [−jωL] on an inductor's branch diagonal (a DC short, its
   branch row is already in the operating-point matrix). *)

type prepared = {
  ap_dc : Dc.prepared;  (* the unknown numbering *)
  ap_sensors : (string * (Complex.t array -> Complex.t)) list;
  ap_base : Numeric.Cmatrix.t;
  ap_base_b : Complex.t array;
  (* (i, j, s): the entry (i, j) gains the susceptance ω·s. *)
  ap_reactive : (int * int * float) list;
}

(* One solution vector per frequency. *)
type sweep = {
  frequencies : float array;
  p : prepared;
  x : Complex.t array array;
}

let prepare ?gmin ~source netlist =
  let elements = Netlist.elements netlist in
  let stimulus =
    match Netlist.find netlist source with
    | Some ({ Element.kind = Element.Vsource _ | Element.Isource _; _ } as e) -> e
    | Some _ -> invalid_arg ("Ac.prepare: stimulus " ^ source ^ " is not a source")
    | None -> invalid_arg ("Ac.prepare: unknown stimulus element " ^ source)
  in
  let dc = Dc.prepare ?gmin netlist in
  match Dc.factorise dc with
  | Error e -> Error e
  | Ok golden ->
      let size = Dc.size dc in
      let a = Numeric.Cmatrix.create size size in
      Dc.iter_operating_matrix golden (fun i j v -> Numeric.Cmatrix.set a i j (cx v));
      let node (e : Element.t) =
        (Dc.node_unknown dc e.Element.node_a, Dc.node_unknown dc e.Element.node_b)
      in
      let branch (e : Element.t) = Dc.branch_unknown dc e.Element.id in
      let b = Array.make size Complex.zero in
      (match (stimulus.Element.kind, node stimulus) with
      | Element.Vsource _, _ -> b.(branch stimulus) <- Complex.one
      | _, (ia, ib) ->
          (* A unit current a -> b inside the source. *)
          Option.iter (fun i -> b.(i) <- cx (-1.0)) ia;
          Option.iter (fun j -> b.(j) <- Complex.one) ib);
      let reactive =
        List.concat_map
          (fun (e : Element.t) ->
            match e.Element.kind with
            | Element.Capacitor c ->
                (* c·(e_a − e_b)(e_a − e_b)ᵀ, ground dropped. *)
                let ia, ib = node e in
                let port =
                  List.filter_map Fun.id
                    [
                      Option.map (fun i -> (i, 1.0)) ia;
                      Option.map (fun j -> (j, -1.0)) ib;
                    ]
                in
                List.concat_map
                  (fun (i, si) ->
                    List.map (fun (j, sj) -> (i, j, si *. sj *. c)) port)
                  port
            | Element.Inductor l ->
                let k = branch e in
                [ (k, k, -.l) ]
            | _ -> [])
          elements
      in
      let at x = function Some i -> x.(i) | None -> Complex.zero in
      let sensors =
        List.filter_map
          (fun (e : Element.t) ->
            match e.Element.kind with
            | Element.Current_sensor ->
                let k = branch e in
                Some (e.Element.id, fun x -> x.(k))
            | Element.Voltage_sensor ->
                let ia, ib = node e in
                Some (e.Element.id, fun x -> Complex.sub (at x ia) (at x ib))
            | _ -> None)
          elements
      in
      Ok
        {
          ap_dc = dc;
          ap_sensors = sensors;
          ap_base = a;
          ap_base_b = b;
          ap_reactive = reactive;
        }

let solve p ~frequencies_hz =
  List.iter
    (fun f ->
      if not (Float.is_finite f && f > 0.0) then
        invalid_arg
          (Printf.sprintf "Ac.solve: frequency %g is not positive and finite" f))
    frequencies_hz;
  let solve_at freq =
    let omega = 2.0 *. Float.pi *. freq in
    let a = Numeric.Cmatrix.copy p.ap_base in
    List.iter
      (fun (i, j, s) ->
        Numeric.Cmatrix.add_to a i j { Complex.re = 0.0; im = omega *. s })
      p.ap_reactive;
    match Numeric.Cmatrix.solve a p.ap_base_b with
    | exception Numeric.Cmatrix.Singular k -> Error (Dc.pivot_failure k)
    | x -> Ok x
  in
  let rec run acc = function
    | [] ->
        Ok
          {
            frequencies = Array.of_list frequencies_hz;
            p;
            x = Array.of_list (List.rev acc);
          }
    | f :: rest -> (
        match solve_at f with Error e -> Error e | Ok x -> run (x :: acc) rest)
  in
  run [] frequencies_hz

let analyse ?gmin ~source netlist ~frequencies_hz =
  match prepare ?gmin ~source netlist with
  | Error e -> Error e
  | Ok p -> solve p ~frequencies_hz

let points_of sweep response =
  Array.to_list
    (Array.mapi
       (fun i x ->
         let h = response x in
         let magnitude = Complex.norm h in
         {
           frequency_hz = sweep.frequencies.(i);
           magnitude;
           magnitude_db = 20.0 *. log10 (Float.max magnitude 1e-300);
           phase_deg = Complex.arg h *. 180.0 /. Float.pi;
         })
       sweep.x)

let node_response sweep n =
  match Dc.node_unknown sweep.p.ap_dc n with
  | Some i -> points_of sweep (fun x -> x.(i))
  | None -> raise Not_found

let sensor_response sweep id =
  points_of sweep (List.assoc id sweep.p.ap_sensors)

let cutoff_hz = function
  | [] -> None
  | first :: _ as points ->
      let threshold = first.magnitude_db -. 3.0 in
      List.find_map
        (fun p -> if p.magnitude_db <= threshold then Some p.frequency_hz else None)
        points

let log_space ~from_hz ~to_hz ~points =
  if not (0.0 < from_hz && from_hz < to_hz && Float.is_finite to_hz) then
    invalid_arg
      (Printf.sprintf "Ac.log_space: need 0 < from < to, finite (got %g to %g)"
         from_hz to_hz);
  if points < 2 then
    invalid_arg
      (Printf.sprintf "Ac.log_space: need at least 2 points (got %d)" points);
  let lo = log10 from_hz and hi = log10 to_hz in
  List.init points (fun i ->
      10.0 ** (lo +. ((hi -. lo) *. float_of_int i /. float_of_int (points - 1))))
