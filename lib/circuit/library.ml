type support = Native | Workaround of string | Unsupported

type catalogue_failure_mode = {
  cfm_name : string;
  cfm_fault : Fault.t;
  cfm_distribution_pct : float;
}

type block_info = {
  block_type : string;
  support : support;
  description : string;
  failure_modes : catalogue_failure_mode list;
}

let fm name fault pct = { cfm_name = name; cfm_fault = fault; cfm_distribution_pct = pct }

(* Distributions follow the MIL-HDBK-338B-style splits used in the paper's
   Table II (open 30 % / short 70 % for passives). *)
let catalogue =
  [
    {
      block_type = "resistor";
      support = Native;
      description = "linear resistor";
      failure_modes =
        [ fm "Open" Fault.Open_circuit 30.0; fm "Short" Fault.Short_circuit 70.0 ];
    };
    {
      block_type = "capacitor";
      support = Native;
      description = "linear capacitor (open at DC)";
      failure_modes =
        [ fm "Open" Fault.Open_circuit 30.0; fm "Short" Fault.Short_circuit 70.0 ];
    };
    {
      block_type = "inductor";
      support = Native;
      description = "linear inductor (short at DC)";
      failure_modes =
        [ fm "Open" Fault.Open_circuit 30.0; fm "Short" Fault.Short_circuit 70.0 ];
    };
    {
      block_type = "diode";
      support = Native;
      description = "exponential junction diode";
      failure_modes =
        [ fm "Open" Fault.Open_circuit 30.0; fm "Short" Fault.Short_circuit 70.0 ];
    };
    {
      block_type = "vsource";
      support = Native;
      description = "ideal DC voltage source";
      failure_modes =
        [
          fm "Loss of output" Fault.Open_circuit 60.0;
          fm "Output drift" (Fault.Parameter_shift 1.5) 40.0;
        ];
    };
    {
      block_type = "isource";
      support = Native;
      description = "ideal DC current source";
      failure_modes =
        [
          fm "Loss of output" Fault.Open_circuit 60.0;
          fm "Output drift" (Fault.Parameter_shift 1.5) 40.0;
        ];
    };
    {
      block_type = "switch";
      support = Native;
      description = "ideal switch";
      failure_modes =
        [
          fm "Stuck open" Fault.Open_circuit 50.0;
          fm "Stuck closed" Fault.Short_circuit 50.0;
        ];
    };
    {
      block_type = "current_sensor";
      support = Native;
      description = "ideal current sensor";
      failure_modes =
        [ fm "Open" Fault.Open_circuit 40.0; fm "Reading loss" Fault.Open_circuit 60.0 ];
    };
    {
      block_type = "voltage_sensor";
      support = Native;
      description = "ideal voltage sensor";
      failure_modes = [ fm "Reading loss" Fault.Open_circuit 100.0 ];
    };
    {
      block_type = "ground";
      support = Native;
      description = "ground reference";
      failure_modes = [];
    };
    {
      block_type = "microcontroller";
      support =
        Workaround
          "modelled as an annotated resistive-load subsystem (the paper's \
           'create subsystems in Simulink and annotate them' work-around)";
      description = "MCU supply-pin load";
      failure_modes = [ fm "RAM Failure" Fault.Open_circuit 100.0 ];
    };
    {
      block_type = "load";
      support = Native;
      description = "generic resistive load";
      failure_modes = [ fm "Open" Fault.Open_circuit 100.0 ];
    };
    {
      block_type = "solver_config";
      support = Native;
      description = "simulation-only block (ignored by analysis)";
      failure_modes = [];
    };
    {
      block_type = "scope";
      support = Native;
      description = "simulation-only block (ignored by analysis)";
      failure_modes = [];
    };
    {
      block_type = "workspace";
      support = Native;
      description = "simulation-only block: writes signals to the workspace";
      failure_modes = [];
    };
    {
      block_type = "display";
      support = Native;
      description = "simulation-only block (ignored by analysis)";
      failure_modes = [];
    };
    {
      block_type = "task";
      support =
        Workaround
          "software block: mapped to an SSAM Software component and analysed \
           by the path algorithm, not the circuit simulator";
      description = "software task";
      failure_modes =
        [ fm "Crash" Fault.Open_circuit 60.0; fm "Hang" Fault.Open_circuit 40.0 ];
    };
    {
      block_type = "pll";
      support =
        Workaround "annotated subsystem with catalogue failure modes (Table I)";
      description = "phase-locked loop";
      failure_modes =
        [
          fm "Lower frequency" Fault.Open_circuit 40.1;
          fm "Higher frequency" (Fault.Parameter_shift 1.5) 28.7;
          fm "Jitter" (Fault.Parameter_shift 0.5) 31.2;
        ];
    };
    {
      block_type = "opamp";
      support = Unsupported;
      description = "operational amplifier (planned)";
      failure_modes = [];
    };
    {
      block_type = "transformer";
      support = Unsupported;
      description = "ideal transformer (planned)";
      failure_modes = [];
    };
  ]

let aliases =
  [
    ("mcu", "microcontroller");
    ("mc", "microcontroller");
    ("dc source", "vsource");
    ("dc_source", "vsource");
    ("voltage source", "vsource");
    ("battery", "vsource");
    ("current source", "isource");
    ("res", "resistor");
    ("cap", "capacitor");
    ("ind", "inductor");
    ("gnd", "ground");
  ]

(* Catalogue names and aliases, all lowercase and trimmed, to their entry:
   a name spelt as the catalogue spells it costs one probe. *)
let by_name =
  let table = Hashtbl.create 64 in
  List.iter (fun b -> Hashtbl.replace table b.block_type b) catalogue;
  List.iter
    (fun (alias, canonical) ->
      match List.find_opt (fun b -> b.block_type = canonical) catalogue with
      | Some b -> Hashtbl.replace table alias b
      | None -> ())
    aliases;
  table

let find name =
  match Hashtbl.find_opt by_name name with
  | Some _ as hit -> hit
  | None ->
      Hashtbl.find_opt by_name (String.lowercase_ascii (String.trim name))

let canonical name =
  match find name with
  | Some b -> b.block_type
  | None -> String.lowercase_ascii (String.trim name)

type coverage_report = {
  native : string list;
  via_workaround : string list;
  unsupported : string list;
  coverage_pct : float;
}

let coverage block_types =
  let distinct = List.sort_uniq String.compare (List.map String.lowercase_ascii block_types) in
  let native, via_workaround, unsupported =
    List.fold_left
      (fun (n, w, u) bt ->
        match find bt with
        | Some { support = Native; _ } -> (bt :: n, w, u)
        | Some { support = Workaround _; _ } -> (n, bt :: w, u)
        | Some { support = Unsupported; _ } | None -> (n, w, bt :: u))
      ([], [], []) distinct
  in
  let total = List.length distinct in
  let covered = List.length native + List.length via_workaround in
  {
    native = List.rev native;
    via_workaround = List.rev via_workaround;
    unsupported = List.rev unsupported;
    coverage_pct =
      (if total = 0 then 100.0 else 100.0 *. float_of_int covered /. float_of_int total);
  }

let pp_coverage ppf r =
  Format.fprintf ppf
    "@[<v>coverage: %.1f%%@,native: %s@,work-around: %s@,unsupported: %s@]"
    r.coverage_pct
    (String.concat ", " r.native)
    (String.concat ", " r.via_workaround)
    (String.concat ", " r.unsupported)
