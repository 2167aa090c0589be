let netlist copies base =
  let rename i (e : Circuit.Element.t) =
    let node n =
      if n = Circuit.Netlist.ground then n else Printf.sprintf "%s_%d" n i
    in
    Circuit.Element.make
      ~id:(Printf.sprintf "%s_%d" e.Circuit.Element.id i)
      ~kind:e.Circuit.Element.kind
      (node e.Circuit.Element.node_a)
      (node e.Circuit.Element.node_b)
  in
  let elements = Circuit.Netlist.elements base in
  Circuit.Netlist.of_elements "psu-array"
    (List.concat (List.init copies (fun i -> List.map (rename i) elements)))

let catalogue n =
  let name i = Printf.sprintf "C%d" i in
  let rows =
    List.init (n + 1) (fun i ->
        Fmea.Table.make_row ~component:(name i) ~component_fit:100.0
          ~failure_mode:"f" ~distribution_pct:100.0 ~safety_related:true ())
  in
  let mechanism i (sm_name, coverage_pct, cost) =
    {
      Reliability.Sm_model.sm_name;
      component_type = name i;
      failure_mode = "f";
      coverage_pct;
      cost;
    }
  in
  let mechanisms =
    List.init (n + 1) (fun i ->
        if i = n then [ mechanism i ("only", 95.0, 3.0) ]
        else
          List.map (mechanism i)
            [ ("a", 60.0, 1.0); ("b", 90.0, 2.0); ("c", 99.0, 4.0) ])
  in
  ( { Fmea.Table.system_name = "streaming"; rows },
    Reliability.Sm_model.of_mechanisms (List.concat mechanisms) )
