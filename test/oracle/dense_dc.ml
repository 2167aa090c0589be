open Circuit

type solution = {
  voltages : (string * float) list;
  currents : (string * float) list;
  sensors : (string * float) list;
}

(* Circuit.Dc's closed-switch model. *)
let closed_switch_resistance = 1e-3

let max_iterations = 200
let max_step = 0.5
let reltol = 1e-6
let vntol = 1e-6

let analyse ?(gmin = 1e-9) netlist =
  let elements = Netlist.elements netlist in
  let nodes = Netlist.nodes netlist in
  let n_nodes = List.length nodes in
  let node n =
    if String.equal n Netlist.ground then None
    else
      let rec find i = function
        | [] -> None
        | m :: rest -> if String.equal m n then Some i else find (i + 1) rest
      in
      find 0 nodes
  in
  (* Branch unknowns follow the node voltages, in element order. *)
  let branches, size =
    List.fold_left
      (fun (acc, k) (e : Element.t) ->
        if Element.is_branch_element e.Element.kind then
          ((e.Element.id, k) :: acc, k + 1)
        else (acc, k))
      ([], n_nodes) elements
  in
  let branch id = List.assoc id branches in
  let v x = function Some i -> x.(i) | None -> 0.0 in
  let terminals (e : Element.t) = (node e.Element.node_a, node e.Element.node_b) in
  let assemble x =
    let a = Numeric.Matrix.create size size in
    let b = Array.make size 0.0 in
    let add i j g =
      match (i, j) with
      | Some i, Some j -> Numeric.Matrix.add_to a i j g
      | _ -> ()
    in
    let conductance ia ib g =
      add ia ia g;
      add ib ib g;
      add ia ib (-.g);
      add ib ia (-.g)
    in
    let inject i amps = Option.iter (fun i -> b.(i) <- b.(i) +. amps) i in
    let voltage_branch k ia ib volts =
      add ia (Some k) 1.0;
      add (Some k) ia 1.0;
      add ib (Some k) (-1.0);
      add (Some k) ib (-1.0);
      b.(k) <- volts
    in
    List.iter
      (fun (e : Element.t) ->
        let ia, ib = terminals e in
        match e.Element.kind with
        | Element.Resistor r | Element.Load r -> conductance ia ib (1.0 /. r)
        | Element.Switch true -> conductance ia ib (1.0 /. closed_switch_resistance)
        | Element.Switch false | Element.Capacitor _ | Element.Voltage_sensor -> ()
        | Element.Isource amps ->
            inject ia (-.amps);
            inject ib amps
        | Element.Vsource volts -> voltage_branch (branch e.Element.id) ia ib volts
        | Element.Inductor _ | Element.Current_sensor ->
            voltage_branch (branch e.Element.id) ia ib 0.0
        | Element.Diode p ->
            (* Newton companion: conductance g in parallel with the
               current source i(vd) − g·vd. *)
            let vd = v x ia -. v x ib in
            let g = Float.max (Dc.diode_conductance p vd) 1e-12 in
            let i_eq = Dc.diode_current p vd -. (g *. vd) in
            conductance ia ib g;
            inject ia (-.i_eq);
            inject ib i_eq)
      elements;
    for i = 0 to n_nodes - 1 do
      Numeric.Matrix.add_to a i i gmin
    done;
    (a, b)
  in
  let solve_once x =
    let a, b = assemble x in
    match Numeric.Lu.solve a b with
    | x -> Ok x
    | exception Numeric.Lu.Singular k ->
        Error
          (Dc.Singular_system (Printf.sprintf "pivot failure at unknown %d" k))
  in
  let has_diodes =
    List.exists
      (fun (e : Element.t) ->
        match e.Element.kind with Element.Diode _ -> true | _ -> false)
      elements
  in
  let rec newton x iter =
    if iter > max_iterations then Error (Dc.No_convergence max_iterations)
    else
      match solve_once x with
      | Error _ as err -> err
      | Ok next ->
          let damped =
            Array.mapi
              (fun i xi ->
                let dv = xi -. x.(i) in
                if i < n_nodes && Float.abs dv > max_step then
                  x.(i) +. Float.copy_sign max_step dv
                else xi)
              next
          in
          if
            Array.for_all2
              (fun d g -> Float.abs (d -. g) <= (reltol *. Float.abs d) +. vntol)
              damped x
          then Ok damped
          else newton damped (iter + 1)
  in
  let result =
    if has_diodes then newton (Array.make size 0.0) 0
    else solve_once (Array.make size 0.0)
  in
  Result.map
    (fun x ->
      let current (e : Element.t) =
        let ia, ib = terminals e in
        let vab = v x ia -. v x ib in
        match e.Element.kind with
        | Element.Resistor r | Element.Load r -> vab /. r
        | Element.Switch true -> vab /. closed_switch_resistance
        | Element.Switch false | Element.Capacitor _ | Element.Voltage_sensor ->
            0.0
        | Element.Isource amps -> amps
        | Element.Diode p -> Dc.diode_current p vab
        | Element.Vsource _ | Element.Inductor _ | Element.Current_sensor ->
            x.(branch e.Element.id)
      in
      let sensors kind reading =
        List.filter_map
          (fun (e : Element.t) ->
            if e.Element.kind = kind then Some (e.Element.id, reading e) else None)
          elements
      in
      {
        voltages = List.mapi (fun i n -> (n, x.(i))) nodes;
        currents = List.map (fun (e : Element.t) -> (e.Element.id, current e)) elements;
        sensors =
          sensors Element.Current_sensor current
          @ sensors Element.Voltage_sensor (fun e ->
                let ia, ib = terminals e in
                v x ia -. v x ib);
      })
    result

let node_voltage s n =
  if String.equal n Netlist.ground then 0.0 else List.assoc n s.voltages

let element_current s id = List.assoc id s.currents

let all_sensor_readings s = s.sensors
