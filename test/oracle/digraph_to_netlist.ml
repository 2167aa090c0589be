(* The block-diagram to netlist converter Blockdiag.To_netlist had
   before its one-pass rewrite: every port interned as a "block.port"
   string in a Graph.Digraph, nets as its undirected components, three
   catalogue lookups per block and Netlist.add per element. *)

open Blockdiag.To_netlist

let simulation_only = [ "scope"; "solver_config"; "out"; "display"; "workspace" ]

let element_kind_of_block (b : Blockdiag.Diagram.block) =
  let num name default = Option.value ~default (Blockdiag.Diagram.param_num b name) in
  let canonical =
    match Circuit.Library.find b.Blockdiag.Diagram.block_type with
    | Some info -> info.Circuit.Library.block_type
    | None -> String.lowercase_ascii b.Blockdiag.Diagram.block_type
  in
  match canonical with
  | "vsource" -> Some (Circuit.Element.Vsource (num "volts" 5.0))
  | "isource" -> Some (Circuit.Element.Isource (num "amps" 0.001))
  | "resistor" -> Some (Circuit.Element.Resistor (num "ohms" 1000.0))
  | "capacitor" -> Some (Circuit.Element.Capacitor (num "farads" 1e-6))
  | "inductor" -> Some (Circuit.Element.Inductor (num "henries" 1e-3))
  | "diode" -> Some (Circuit.Element.Diode Circuit.Element.default_diode)
  | "switch" ->
      let closed =
        match List.assoc_opt "closed" b.Blockdiag.Diagram.parameters with
        | Some (Blockdiag.Diagram.P_bool v) -> v
        | Some (Blockdiag.Diagram.P_num f) -> f <> 0.0
        | Some (Blockdiag.Diagram.P_str s) -> String.lowercase_ascii s = "true"
        | None -> true
      in
      Some (Circuit.Element.Switch closed)
  | "current_sensor" -> Some Circuit.Element.Current_sensor
  | "voltage_sensor" -> Some Circuit.Element.Voltage_sensor
  | "load" -> Some (Circuit.Element.Load (num "ohms" 100.0))
  | "microcontroller" | "pll" ->
      (* The paper's work-around: annotated subsystems analysed as loads. *)
      Some (Circuit.Element.Load (num "ohms" 100.0))
  | "ground" -> None (* handled by net naming *)
  | other ->
      if List.mem other simulation_only then None
      else if
        List.for_all
          (fun (p : Blockdiag.Diagram.port) -> p.Blockdiag.Diagram.port_kind = Blockdiag.Diagram.Conserving)
          b.Blockdiag.Diagram.ports
        && b.Blockdiag.Diagram.ports <> []
      then
        raise
          (Blockdiag.To_netlist.Unsupported_block
             { block_id = b.Blockdiag.Diagram.block_id; block_type = b.Blockdiag.Diagram.block_type })
      else None

(* Flatten subsystems, qualifying nested ids. *)
let rec flatten prefix (d : Blockdiag.Diagram.t) =
  let qualify id = if prefix = "" then id else prefix ^ "/" ^ id in
  let blocks =
    List.map
      (fun (b : Blockdiag.Diagram.block) ->
        { b with Blockdiag.Diagram.block_id = qualify b.Blockdiag.Diagram.block_id })
      d.Blockdiag.Diagram.blocks
  in
  let connections =
    List.map
      (fun (c : Blockdiag.Diagram.connection) ->
        {
          Blockdiag.Diagram.from_ep =
            {
              c.Blockdiag.Diagram.from_ep with
              Blockdiag.Diagram.ep_block = qualify c.Blockdiag.Diagram.from_ep.Blockdiag.Diagram.ep_block;
            };
          to_ep =
            {
              c.Blockdiag.Diagram.to_ep with
              Blockdiag.Diagram.ep_block = qualify c.Blockdiag.Diagram.to_ep.Blockdiag.Diagram.ep_block;
            };
        })
      d.Blockdiag.Diagram.connections
  in
  List.fold_left
    (fun (bs, cs) sub ->
      let sb, sc = flatten (qualify sub.Blockdiag.Diagram.diagram_name) sub in
      (bs @ sb, cs @ sc))
    (blocks, connections) d.Blockdiag.Diagram.subsystems

let endpoint_key block port = block ^ "." ^ port

let convert d =
  let blocks, connections = flatten "" d in
  (* Electrical nets are the connected components of the endpoint graph
     — the shared {!Graph.Digraph} kernel (direction ignored) instead of
     a local union-find.  Every port of every block is interned up
     front, so unconnected ports get their own singleton net. *)
  let port_keys =
    List.concat_map
      (fun (b : Blockdiag.Diagram.block) ->
        List.map
          (fun (p : Blockdiag.Diagram.port) ->
            endpoint_key b.Blockdiag.Diagram.block_id p.Blockdiag.Diagram.port_name)
          b.Blockdiag.Diagram.ports)
      blocks
  in
  let g =
    Graph.Digraph.of_edges ~nodes:port_keys
      (List.map
         (fun (c : Blockdiag.Diagram.connection) ->
           ( endpoint_key c.Blockdiag.Diagram.from_ep.Blockdiag.Diagram.ep_block
               c.Blockdiag.Diagram.from_ep.Blockdiag.Diagram.ep_port,
             endpoint_key c.Blockdiag.Diagram.to_ep.Blockdiag.Diagram.ep_block
               c.Blockdiag.Diagram.to_ep.Blockdiag.Diagram.ep_port ))
         connections)
  in
  let net_of_key, net_count = Graph.Digraph.undirected_components g in
  let net_id block port =
    match Graph.Digraph.index g (endpoint_key block port) with
    | Some i -> net_of_key.(i)
    | None -> assert false (* every block port was interned above *)
  in
  (* Ground nets. *)
  let grounded = Array.make (max 1 net_count) false in
  List.iter
    (fun (b : Blockdiag.Diagram.block) ->
      let canonical =
        match Circuit.Library.find b.Blockdiag.Diagram.block_type with
        | Some info -> info.Circuit.Library.block_type
        | None -> String.lowercase_ascii b.Blockdiag.Diagram.block_type
      in
      if String.equal canonical "ground" then
        List.iter
          (fun (p : Blockdiag.Diagram.port) ->
            grounded.(net_id b.Blockdiag.Diagram.block_id p.Blockdiag.Diagram.port_name) <- true)
          b.Blockdiag.Diagram.ports)
    blocks;
  let net_names = Hashtbl.create 32 in
  let counter = ref 0 in
  let net_of block port =
    let net = net_id block port in
    if grounded.(net) then Circuit.Netlist.ground
    else
      match Hashtbl.find_opt net_names net with
      | Some n -> n
      | None ->
          incr counter;
          let n = Printf.sprintf "n%d" !counter in
          Hashtbl.add net_names net n;
          n
  in
  let skipped = ref [] in
  let block_types = ref [] in
  let netlist = ref (Circuit.Netlist.empty d.Blockdiag.Diagram.diagram_name) in
  List.iter
    (fun (b : Blockdiag.Diagram.block) ->
      match element_kind_of_block b with
      | None ->
          let canonical =
            match Circuit.Library.find b.Blockdiag.Diagram.block_type with
            | Some info -> info.Circuit.Library.block_type
            | None -> String.lowercase_ascii b.Blockdiag.Diagram.block_type
          in
          if not (String.equal canonical "ground") then
            skipped :=
              {
                block_id = b.Blockdiag.Diagram.block_id;
                reason =
                  Printf.sprintf "non-electrical block type '%s'"
                    b.Blockdiag.Diagram.block_type;
              }
              :: !skipped
      | Some kind -> (
          match b.Blockdiag.Diagram.ports with
          | [ pa; pb ] ->
              let node_a = net_of b.Blockdiag.Diagram.block_id pa.Blockdiag.Diagram.port_name in
              let node_b = net_of b.Blockdiag.Diagram.block_id pb.Blockdiag.Diagram.port_name in
              if String.equal node_a node_b then
                skipped :=
                  {
                    block_id = b.Blockdiag.Diagram.block_id;
                    reason = "both terminals on the same net";
                  }
                  :: !skipped
              else begin
                netlist :=
                  Circuit.Netlist.add !netlist
                    (Circuit.Element.make ~id:b.Blockdiag.Diagram.block_id ~kind node_a
                       node_b);
                block_types :=
                  (b.Blockdiag.Diagram.block_id, b.Blockdiag.Diagram.block_type) :: !block_types
              end
          | _ ->
              skipped :=
                {
                  block_id = b.Blockdiag.Diagram.block_id;
                  reason = "not a two-terminal block";
                }
                :: !skipped))
    blocks;
  {
    netlist = !netlist;
    skipped = List.rev !skipped;
    block_types = List.rev !block_types;
  }
