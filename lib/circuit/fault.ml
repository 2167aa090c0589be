type t =
  | Open_circuit
  | Short_circuit
  | Stuck_value of float
  | Parameter_shift of float
[@@deriving eq, show]

let to_string = function
  | Open_circuit -> "open"
  | Short_circuit -> "short"
  | Stuck_value v -> Printf.sprintf "stuck@%g" v
  | Parameter_shift f -> Printf.sprintf "shift(x%g)" f

exception Not_applicable of { element : string; fault : t; reason : string }

let short_resistance = 1e-3

let faulted_kind kind fault ~element =
  let not_applicable reason =
    raise (Not_applicable { element; fault; reason })
  in
  match fault with
  | Open_circuit -> Element.Switch false
  | Short_circuit -> Element.Resistor short_resistance
  | Stuck_value v -> (
      match kind with
      | Element.Vsource _ -> Element.Vsource v
      | Element.Isource _ -> Element.Isource v
      | _ -> not_applicable "stuck values only apply to sources")
  | Parameter_shift factor -> (
      match kind with
      | Element.Resistor r -> Element.Resistor (r *. factor)
      | Element.Load r -> Element.Load (r *. factor)
      | Element.Inductor l -> Element.Inductor (l *. factor)
      | Element.Capacitor c -> Element.Capacitor (c *. factor)
      | Element.Vsource v -> Element.Vsource (v *. factor)
      | Element.Isource i -> Element.Isource (i *. factor)
      | _ -> not_applicable "no primary parameter to shift")

let inject netlist ~element_id fault =
  let e =
    match Netlist.find netlist element_id with
    | Some e -> e
    | None -> raise Not_found
  in
  Netlist.replace netlist element_id
    (faulted_kind e.Element.kind fault ~element:element_id)

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let of_failure_mode_name name =
  let n = String.lowercase_ascii (String.trim name) in
  if contains_sub n "open" then Some Open_circuit
  else if contains_sub n "short" then Some Short_circuit
  else if contains_sub n "loss" || contains_sub n "fail" || contains_sub n "stuck"
  then Some Open_circuit
  else if contains_sub n "drift" || contains_sub n "degraded" then
    Some (Parameter_shift 2.0)
  else None
