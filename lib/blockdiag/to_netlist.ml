type skipped = { block_id : string; reason : string }

type result = {
  netlist : Circuit.Netlist.t;
  skipped : skipped list;
  block_types : (string * string) list;
}

exception Unsupported_block of { block_id : string; block_type : string }

let rejection = function
  | Unsupported_block { block_id; block_type } ->
      Some
        (Printf.sprintf "block %s: unsupported electrical block type '%s'"
           block_id block_type)
  | Invalid_argument m -> Some m
  | _ -> None

let simulation_only = [ "scope"; "solver_config"; "out"; "display"; "workspace" ]

(* The element a block of catalogue type [canonical] maps to. *)
let element_kind canonical (b : Diagram.block) =
  let num name default = Option.value ~default (Diagram.param_num b name) in
  match canonical with
  | "vsource" -> Some (Circuit.Element.Vsource (num "volts" 5.0))
  | "isource" -> Some (Circuit.Element.Isource (num "amps" 0.001))
  | "resistor" -> Some (Circuit.Element.Resistor (num "ohms" 1000.0))
  | "capacitor" -> Some (Circuit.Element.Capacitor (num "farads" 1e-6))
  | "inductor" -> Some (Circuit.Element.Inductor (num "henries" 1e-3))
  | "diode" -> Some (Circuit.Element.Diode Circuit.Element.default_diode)
  | "switch" ->
      let closed =
        match List.assoc_opt "closed" b.Diagram.parameters with
        | Some (Diagram.P_bool v) -> v
        | Some (Diagram.P_num f) -> f <> 0.0
        | Some (Diagram.P_str s) -> String.lowercase_ascii s = "true"
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
          (fun (p : Diagram.port) -> p.Diagram.port_kind = Diagram.Conserving)
          b.Diagram.ports
        && b.Diagram.ports <> []
      then
        raise
          (Unsupported_block
             { block_id = b.Diagram.block_id; block_type = b.Diagram.block_type })
      else None

(* Flatten subsystems, qualifying nested ids. *)
let rec flatten prefix (d : Diagram.t) =
  let qualify id = if prefix = "" then id else prefix ^ "/" ^ id in
  let blocks =
    List.map
      (fun (b : Diagram.block) ->
        { b with Diagram.block_id = qualify b.Diagram.block_id })
      d.Diagram.blocks
  in
  let connections =
    List.map
      (fun (c : Diagram.connection) ->
        {
          Diagram.from_ep =
            {
              c.Diagram.from_ep with
              Diagram.ep_block = qualify c.Diagram.from_ep.Diagram.ep_block;
            };
          to_ep =
            {
              c.Diagram.to_ep with
              Diagram.ep_block = qualify c.Diagram.to_ep.Diagram.ep_block;
            };
        })
      d.Diagram.connections
  in
  List.fold_left
    (fun (bs, cs) sub ->
      let sb, sc = flatten (qualify sub.Diagram.diagram_name) sub in
      (bs @ sb, cs @ sc))
    (blocks, connections) d.Diagram.subsystems

(* Union-find over port slots, with path halving. *)
let rec root parent i =
  let p = parent.(i) in
  if p = i then i
  else begin
    let g = parent.(p) in
    parent.(i) <- g;
    if g = p then p else root parent g
  end

let union parent i j =
  let ri = root parent i and rj = root parent j in
  if ri <> rj then parent.(ri) <- rj

let convert d =
  let blocks, connections = flatten "" d in
  let blocks = Array.of_list blocks in
  (* Each block's catalogue type, looked up once. *)
  let canonical =
    Array.map
      (fun (b : Diagram.block) -> Circuit.Library.canonical b.Diagram.block_type)
      blocks
  in
  (* Every port of every block is a slot.  A block id that repeats after
     flattening shares its namesake's slot for a port of the same name,
     so the two blocks' ports are wired together. *)
  let ports_of_id = Hashtbl.create 64 in
  let slots = ref 0 in
  let fresh () =
    let s = !slots in
    incr slots;
    s
  in
  let block_slots =
    Array.map
      (fun (b : Diagram.block) ->
        let id = b.Diagram.block_id in
        let known =
          ref (Option.value ~default:[] (Hashtbl.find_opt ports_of_id id))
        in
        let ports =
          List.map
            (fun (p : Diagram.port) ->
              match List.assoc_opt p.Diagram.port_name !known with
              | Some s -> s
              | None ->
                  let s = fresh () in
                  known := (p.Diagram.port_name, s) :: !known;
                  s)
            b.Diagram.ports
        in
        Hashtbl.replace ports_of_id id !known;
        ports)
      blocks
  in
  (* An endpoint no block declares is a slot of its own: it still joins
     the ports wired to it. *)
  let undeclared = Hashtbl.create 8 in
  let slot_of (ep : Diagram.endpoint) =
    match
      Option.bind
        (Hashtbl.find_opt ports_of_id ep.Diagram.ep_block)
        (List.assoc_opt ep.Diagram.ep_port)
    with
    | Some s -> s
    | None -> (
        let key = (ep.Diagram.ep_block, ep.Diagram.ep_port) in
        match Hashtbl.find_opt undeclared key with
        | Some s -> s
        | None ->
            let s = fresh () in
            Hashtbl.add undeclared key s;
            s)
  in
  (* Electrical nets are the classes of the slots the connections union.
     The endpoints are resolved first so that the per-slot arrays have
     one entry per slot: an array over 256 words is allocated in the
     major heap, and over-sizing them for System B raised the peak heap
     of a cold `same fmeda` by ~10k words. *)
  let wires =
    List.map
      (fun (c : Diagram.connection) ->
        let a = slot_of c.Diagram.from_ep in
        (a, slot_of c.Diagram.to_ep))
      connections
  in
  let parent = Array.init !slots Fun.id in
  List.iter (fun (a, b) -> union parent a b) wires;
  let grounded = Array.make (Array.length parent) false in
  Array.iteri
    (fun i ports ->
      if String.equal canonical.(i) "ground" then
        List.iter (fun s -> grounded.(root parent s) <- true) ports)
    block_slots;
  (* Nets are named n1, n2... in the order elements first use them. *)
  let names = Array.make (Array.length parent) "" in
  let named = ref 0 in
  let net_of slot =
    let r = root parent slot in
    if grounded.(r) then Circuit.Netlist.ground
    else if names.(r) <> "" then names.(r)
    else begin
      incr named;
      let n = "n" ^ string_of_int !named in
      names.(r) <- n;
      n
    end
  in
  let skipped = ref [] in
  let block_types = ref [] in
  let elements = ref [] in
  let ids = Hashtbl.create 64 in
  let skip (b : Diagram.block) reason =
    skipped := { block_id = b.Diagram.block_id; reason } :: !skipped
  in
  Array.iteri
    (fun i (b : Diagram.block) ->
      match element_kind canonical.(i) b with
      | None ->
          if not (String.equal canonical.(i) "ground") then
            skip b
              (Printf.sprintf "non-electrical block type '%s'"
                 b.Diagram.block_type)
      | Some kind -> (
          match block_slots.(i) with
          | [ slot_a; slot_b ] ->
              let node_a = net_of slot_a in
              let node_b = net_of slot_b in
              if String.equal node_a node_b then
                skip b "both terminals on the same net"
              else begin
                let id = b.Diagram.block_id in
                let e = Circuit.Element.make ~id ~kind node_a node_b in
                if Hashtbl.mem ids id then
                  invalid_arg
                    (Printf.sprintf "Netlist.add: duplicate element id %s" id);
                Hashtbl.add ids id ();
                elements := e :: !elements;
                block_types := (id, b.Diagram.block_type) :: !block_types
              end
          | _ -> skip b "not a two-terminal block"))
    blocks;
  {
    netlist =
      Circuit.Netlist.of_elements d.Diagram.diagram_name (List.rev !elements);
    skipped = List.rev !skipped;
    block_types = List.rev !block_types;
  }
