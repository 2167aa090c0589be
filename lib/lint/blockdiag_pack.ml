(* Block-diagram / circuit pack: structural wiring checks plus the
   analysis-setup checks (`--monitor`, `--exclude`) that only the lint
   driver sees the arguments for. *)

open Blockdiag.Diagram

let rule id severity title = { Rule.id; severity; category = Rule.Block_diagram; title }

let blk001 = rule "BLK001" Rule.Error "connection references a missing block"
let blk002 = rule "BLK002" Rule.Error "connection into a missing port"
let blk003 = rule "BLK003" Rule.Error "duplicate block id"
let blk004 = rule "BLK004" Rule.Error "port direction violation"
let blk005 = rule "BLK005" Rule.Warning "electrical or input port left unconnected"
let blk006 = rule "BLK006" Rule.Warning "block type outside the supported catalogue"
let blk007 = rule "BLK007" Rule.Error "--monitor names a missing or non-sensor block"
let blk008 = rule "BLK008" Rule.Warning "no sensor observes the design"
let blk009 = rule "BLK009" Rule.Error "--exclude names a block not in the diagram"
let blk010 = rule "BLK010" Rule.Warning "excluded block still covered by SM catalogue rows"
let blk011 = rule "BLK011" Rule.Error "netlist conversion rejects the diagram"

let rules =
  [
    blk001; blk002; blk003; blk004; blk005; blk006; blk007; blk008; blk009;
    blk010; blk011;
  ]

let is_sensor_type ty =
  match Circuit.Library.find ty with
  | Some info ->
      info.Circuit.Library.block_type = "current_sensor"
      || info.Circuit.Library.block_type = "voltage_sensor"
  | None -> false

(* Canonical catalogue name of a block type, for alias-insensitive
   comparisons ("MC" and "microcontroller" are the same type). *)
let canon_type ty =
  match Circuit.Library.find ty with
  | Some info -> info.Circuit.Library.block_type
  | None -> String.lowercase_ascii ty

let find_port b name =
  List.find_opt (fun p -> p.port_name = name) b.ports

let check_level ?file acc level =
  let diag ?element ?hint rule msg =
    acc := Rule.diagnostic ?element ?file ?hint ~rule msg :: !acc
  in
  let ids = List.map (fun b -> b.block_id) level.blocks in
  List.iter
    (fun id ->
      if List.length (List.filter (String.equal id) ids) > 1 then
        diag ~element:id ~hint:"rename one of the blocks" blk003
          (Printf.sprintf "%s: duplicate block id '%s'" level.diagram_name id))
    (List.sort_uniq String.compare ids);
  let endpoint_port ep =
    match find_block level ep.ep_block with
    | None ->
        diag ~element:ep.ep_block
          ~hint:"add the block or fix the connection" blk001
          (Printf.sprintf "%s: connection references missing block '%s'"
             level.diagram_name ep.ep_block);
        None
    | Some b -> (
        match find_port b ep.ep_port with
        | None ->
            diag ~element:ep.ep_block blk002
              (Printf.sprintf "%s: block '%s' has no port '%s'"
                 level.diagram_name ep.ep_block ep.ep_port);
            None
        | Some p -> Some p)
  in
  List.iter
    (fun c ->
      match (endpoint_port c.from_ep, endpoint_port c.to_ep) with
      | Some p1, Some p2 ->
          let bad what =
            diag ~element:c.from_ep.ep_block blk004
              (Printf.sprintf "%s: %s (%s.%s -> %s.%s)" level.diagram_name what
                 c.from_ep.ep_block c.from_ep.ep_port c.to_ep.ep_block
                 c.to_ep.ep_port)
          in
          (match (p1.port_kind, p2.port_kind) with
          | Out_port, Out_port -> bad "two outputs wired together"
          | In_port, In_port -> bad "two inputs wired together"
          | Conserving, (In_port | Out_port) | (In_port | Out_port), Conserving
            ->
              bad "conserving port wired to a signal port"
          | Conserving, Conserving | Out_port, In_port | In_port, Out_port -> ())
      | _ -> ())
    level.connections;
  (* Floating terminals: a conserving or input port no connection at this
     level touches.  Unused signal *outputs* are fine (an unread
     measurement), so they are not reported. *)
  let touched b p =
    List.exists
      (fun c ->
        (c.from_ep.ep_block = b && c.from_ep.ep_port = p)
        || (c.to_ep.ep_block = b && c.to_ep.ep_port = p))
      level.connections
  in
  List.iter
    (fun b ->
      List.iter
        (fun p ->
          match p.port_kind with
          | Out_port -> ()
          | Conserving | In_port ->
              if not (touched b.block_id p.port_name) then
                diag ~element:b.block_id
                  ~hint:"wire the port or remove the block" blk005
                  (Printf.sprintf "%s: port '%s.%s' is never connected"
                     level.diagram_name b.block_id p.port_name))
        b.ports)
    level.blocks;
  List.iter
    (fun b ->
      match Circuit.Library.find b.block_type with
      | Some { Circuit.Library.support = Circuit.Library.Unsupported; _ } ->
          diag ~element:b.block_id
            ~hint:"model it as an annotated subsystem (the paper's work-around)"
            blk006
            (Printf.sprintf "%s: block type '%s' is unsupported"
               level.diagram_name b.block_type)
      | Some _ -> ()
      | None ->
          diag ~element:b.block_id blk006
            (Printf.sprintf "%s: unknown block type '%s'" level.diagram_name
               b.block_type))
    level.blocks

let run (input : Input.t) =
  match input.Input.diagram with
  | None -> []
  | Some (path, diagram) ->
      let file = path in
      let acc = ref [] in
      let rec go level =
        check_level ~file acc level;
        List.iter go level.subsystems
      in
      go diagram;
      let diag ?element ?hint rule msg =
        acc := Rule.diagnostic ?element ~file ?hint ~rule msg :: !acc
      in
      (* Every analysis converts the diagram to a netlist first: what the
         conversion rejects (an unknown two-terminal type, a value the
         circuit refuses) fails them all.  Only asked of a diagram whose
         wiring passed, whose errors are already reported. *)
      if
        not
          (List.exists
             (fun (d : Rule.diagnostic) -> d.Rule.d_severity = Rule.Error)
             !acc)
      then (
        match Blockdiag.To_netlist.convert diagram with
        | _ -> ()
        | exception e -> (
            match Blockdiag.To_netlist.rejection e with
            | Some m ->
                diag ~hint:"fix the block's type or value" blk011
                  (Printf.sprintf "%s: %s" diagram.diagram_name m)
            | None -> raise e));
      let blocks = all_blocks diagram in
      let sensors =
        List.filter (fun b -> is_sensor_type b.block_type) blocks
      in
      List.iter
        (fun id ->
          match List.find_opt (fun b -> b.block_id = id) blocks with
          | None ->
              diag ~element:id blk007
                (Printf.sprintf "monitored sensor '%s' is not in the diagram" id)
          | Some b ->
              if not (is_sensor_type b.block_type) then
                diag ~element:id blk007
                  (Printf.sprintf
                     "monitored block '%s' is a %s, not a sensor" id
                     b.block_type))
        input.Input.monitored;
      if input.Input.monitored = [] && sensors = [] && blocks <> [] then
        diag
          ~hint:"add a current or voltage sensor so failures are observable"
          blk008 "no sensor observes the design — every fault is latent";
      List.iter
        (fun id ->
          match List.find_opt (fun b -> b.block_id = id) blocks with
          | None ->
              diag ~element:id blk009
                (Printf.sprintf "excluded component '%s' is not in the diagram"
                   id)
          | Some b -> (
              match input.Input.sm with
              | None -> ()
              | Some (_, sm) ->
                  let ty = canon_type b.block_type in
                  let referenced =
                    List.exists
                      (fun (m : Reliability.Sm_model.mechanism) ->
                        canon_type m.Reliability.Sm_model.component_type = ty)
                      (Reliability.Sm_model.mechanisms sm)
                  in
                  if referenced then
                    diag ~element:id
                      ~hint:"drop the exclusion or remove the SM rows"
                      blk010
                      (Printf.sprintf
                         "excluded component '%s' (%s) still has safety \
                          mechanisms catalogued for its type"
                         id b.block_type)))
        input.Input.exclude;
      List.rev !acc
