open Blockdiag.Diagram

type subject = {
  subject_name : string;
  diagram : Blockdiag.Diagram.t;
  reliability : Reliability.Reliability_model.t;
  safety_mechanisms : Reliability.Sm_model.t;
  target : Ssam.Requirement.integrity_level;
}

(* Pad a diagram to an exact element count with structurally meaningful
   additions: monitor test points (a voltage sensor across the output
   rail: 1 block + 2 connections = 3 elements) and stand-alone scopes
   (1 element). *)
let pad_to ~target ~rail_block ~rail_port ~ground_block d =
  let current = block_count d in
  if current > target then
    invalid_arg
      (Printf.sprintf "pad_to: core of %s already has %d > %d elements"
         d.diagram_name current target);
  let deficit = target - current in
  let test_points = deficit / 3 in
  let singles = deficit mod 3 in
  let tp_blocks =
    List.init test_points (fun i ->
        block
          ~id:(Printf.sprintf "TP%d" (i + 1))
          ~block_type:"voltage_sensor" ())
  in
  let tp_connections =
    List.concat
      (List.init test_points (fun i ->
           let id = Printf.sprintf "TP%d" (i + 1) in
           [
             connect (id, "a") (rail_block, rail_port);
             connect (id, "b") (ground_block, "a");
           ]))
  in
  let single_blocks =
    List.init singles (fun i ->
        block
          ~id:(Printf.sprintf "MON%d" (i + 1))
          ~block_type:"scope"
          ~ports:[ { port_name = "in"; port_kind = In_port } ]
          ())
  in
  {
    d with
    blocks = d.blocks @ tp_blocks @ single_blocks;
    connections = d.connections @ tp_connections;
  }

let ground_port = [ { port_name = "a"; port_kind = Conserving } ]

let system_a_core =
  let b = block in
  diagram ~name:"system_a"
    [
      b ~id:"DC1" ~block_type:"vsource" ~parameters:[ ("volts", P_num 12.0) ] ();
      b ~id:"SW1" ~block_type:"switch" ~parameters:[ ("closed", P_bool true) ] ();
      b ~id:"D1" ~block_type:"diode" ();
      b ~id:"L1" ~block_type:"inductor" ~parameters:[ ("henries", P_num 2e-3) ] ();
      b ~id:"C1" ~block_type:"capacitor" ~parameters:[ ("farads", P_num 2e-5) ] ();
      b ~id:"L2" ~block_type:"inductor" ~parameters:[ ("henries", P_num 1e-3) ] ();
      b ~id:"C2" ~block_type:"capacitor" ~parameters:[ ("farads", P_num 1e-5) ] ();
      b ~id:"CS1" ~block_type:"current_sensor" ();
      b ~id:"MC1" ~block_type:"microcontroller"
        ~parameters:[ ("ohms", P_num 240.0) ]
        ~annotation:"supervisor MCU (annotated subsystem)" ();
      b ~id:"RL1" ~block_type:"load" ~parameters:[ ("ohms", P_num 480.0) ] ();
      b ~id:"VS1" ~block_type:"voltage_sensor" ();
      b ~id:"GND1" ~block_type:"ground" ~ports:ground_port ();
    ]
    ~connections:
      [
        connect ("DC1", "a") ("SW1", "a");
        connect ("SW1", "b") ("D1", "a");
        connect ("D1", "b") ("L1", "a");
        connect ("L1", "b") ("C1", "a");
        connect ("L1", "b") ("L2", "a");
        connect ("L2", "b") ("C2", "a");
        connect ("L2", "b") ("CS1", "a");
        connect ("CS1", "b") ("MC1", "a");
        connect ("L2", "b") ("RL1", "a");
        connect ("L2", "b") ("VS1", "a");
        connect ("DC1", "b") ("GND1", "a");
        connect ("C1", "b") ("GND1", "a");
        connect ("C2", "b") ("GND1", "a");
        connect ("MC1", "b") ("GND1", "a");
        connect ("RL1", "b") ("GND1", "a");
        connect ("VS1", "b") ("GND1", "a");
      ]

let reliability_a =
  let open Reliability in
  List.fold_left Reliability_model.add Reliability_model.table_ii
    [
      {
        Reliability_model.component_type = "switch";
        fit = Fit.of_float 8.0;
        failure_modes =
          [
            {
              Reliability_model.fm_name = "Stuck open";
              distribution_pct = 50.0;
              fault = Some Circuit.Fault.Open_circuit;
              loss_of_function = true;
            };
            {
              Reliability_model.fm_name = "Stuck closed";
              distribution_pct = 50.0;
              fault = Some Circuit.Fault.Short_circuit;
              loss_of_function = false;
            };
          ];
      };
      {
        Reliability_model.component_type = "load";
        fit = Fit.of_float 25.0;
        failure_modes =
          [
            {
              Reliability_model.fm_name = "Open";
              distribution_pct = 60.0;
              fault = Some Circuit.Fault.Open_circuit;
              loss_of_function = true;
            };
            {
              Reliability_model.fm_name = "Short";
              distribution_pct = 40.0;
              fault = Some Circuit.Fault.Short_circuit;
              loss_of_function = false;
            };
          ];
      };
      {
        Reliability_model.component_type = "current_sensor";
        fit = Fit.of_float 12.0;
        failure_modes =
          [
            {
              Reliability_model.fm_name = "Reading loss";
              distribution_pct = 70.0;
              fault = Some Circuit.Fault.Open_circuit;
              loss_of_function = true;
            };
            {
              Reliability_model.fm_name = "Offset drift";
              distribution_pct = 30.0;
              fault = None (* not injectable: analog drift, reviewed manually *);
              loss_of_function = false;
            };
          ];
      };
      {
        Reliability_model.component_type = "voltage_sensor";
        fit = Fit.of_float 9.0;
        failure_modes =
          [
            {
              Reliability_model.fm_name = "Reading loss";
              distribution_pct = 70.0;
              fault = Some Circuit.Fault.Open_circuit;
              loss_of_function = true;
            };
            {
              Reliability_model.fm_name = "Offset drift";
              distribution_pct = 30.0;
              fault = None;
              loss_of_function = false;
            };
          ];
      };
    ]

let system_a =
  {
    subject_name = "System A";
    diagram =
      pad_to ~target:102 ~rail_block:"L2" ~rail_port:"b" ~ground_block:"GND1"
        system_a_core;
    reliability = reliability_a;
    safety_mechanisms = Reliability.Sm_model.extended_catalogue;
    target = Ssam.Requirement.ASIL_B;
  }

(* ---------- System B: AUV main control unit ---------- *)

let sw_ports = [
  { port_name = "in"; port_kind = In_port };
  { port_name = "out"; port_kind = Out_port };
]

let system_b_core =
  let b = block in
  let hw =
    [
      b ~id:"BAT1" ~block_type:"vsource" ~parameters:[ ("volts", P_num 24.0) ] ();
      b ~id:"SW1" ~block_type:"switch" ~parameters:[ ("closed", P_bool true) ] ();
      b ~id:"D1" ~block_type:"diode" ();
      b ~id:"L1" ~block_type:"inductor" ~parameters:[ ("henries", P_num 2e-3) ] ();
      b ~id:"C1" ~block_type:"capacitor" ~parameters:[ ("farads", P_num 4e-5) ] ();
      b ~id:"L2" ~block_type:"inductor" ~parameters:[ ("henries", P_num 1e-3) ] ();
      b ~id:"C2" ~block_type:"capacitor" ~parameters:[ ("farads", P_num 2e-5) ] ();
      b ~id:"CS1" ~block_type:"current_sensor" ();
      b ~id:"MC1" ~block_type:"microcontroller"
        ~parameters:[ ("ohms", P_num 120.0) ]
        ~annotation:"main control MCU (dual-core)" ();
      b ~id:"IMU1" ~block_type:"load" ~parameters:[ ("ohms", P_num 600.0) ] ();
      b ~id:"SONAR1" ~block_type:"load" ~parameters:[ ("ohms", P_num 300.0) ] ();
      b ~id:"GPS1" ~block_type:"load" ~parameters:[ ("ohms", P_num 800.0) ] ();
      b ~id:"CS2" ~block_type:"current_sensor" ();
      b ~id:"THR1" ~block_type:"load" ~parameters:[ ("ohms", P_num 48.0) ] ();
      b ~id:"THR2" ~block_type:"load" ~parameters:[ ("ohms", P_num 48.0) ] ();
      b ~id:"THR3" ~block_type:"load" ~parameters:[ ("ohms", P_num 48.0) ] ();
      b ~id:"THR4" ~block_type:"load" ~parameters:[ ("ohms", P_num 48.0) ] ();
      b ~id:"VS1" ~block_type:"voltage_sensor" ();
      b ~id:"GND1" ~block_type:"ground" ~ports:ground_port ();
    ]
  in
  let hw_connections =
    [
      connect ("BAT1", "a") ("SW1", "a");
      connect ("SW1", "b") ("D1", "a");
      connect ("D1", "b") ("L1", "a");
      connect ("L1", "b") ("C1", "a");
      connect ("L1", "b") ("L2", "a");
      connect ("L2", "b") ("C2", "a");
      connect ("L2", "b") ("CS1", "a");
      connect ("CS1", "b") ("MC1", "a");
      connect ("L2", "b") ("IMU1", "a");
      connect ("L2", "b") ("SONAR1", "a");
      connect ("L2", "b") ("GPS1", "a");
      connect ("L2", "b") ("CS2", "a");
      connect ("CS2", "b") ("THR1", "a");
      connect ("CS2", "b") ("THR2", "a");
      connect ("CS2", "b") ("THR3", "a");
      connect ("CS2", "b") ("THR4", "a");
      connect ("L2", "b") ("VS1", "a");
      connect ("BAT1", "b") ("GND1", "a");
      connect ("C1", "b") ("GND1", "a");
      connect ("C2", "b") ("GND1", "a");
      connect ("MC1", "b") ("GND1", "a");
      connect ("IMU1", "b") ("GND1", "a");
      connect ("SONAR1", "b") ("GND1", "a");
      connect ("GPS1", "b") ("GND1", "a");
      connect ("THR1", "b") ("GND1", "a");
      connect ("THR2", "b") ("GND1", "a");
      connect ("THR3", "b") ("GND1", "a");
      connect ("THR4", "b") ("GND1", "a");
      connect ("VS1", "b") ("GND1", "a");
    ]
  in
  let task id = b ~id ~block_type:"task" ~ports:sw_ports () in
  let software =
    diagram ~name:"control_software"
      [
        task "DRV_IMU";
        task "DRV_SONAR";
        task "DRV_GPS";
        task "FUSION";
        task "NAV";
        task "GUIDANCE";
        task "CTRL";
        task "ALLOC";
        task "DRV_THR";
        task "LOG";
        task "WDT";
        task "HEALTH";
      ]
      ~connections:
        [
          connect ("DRV_IMU", "out") ("FUSION", "in");
          connect ("DRV_SONAR", "out") ("FUSION", "in");
          connect ("DRV_GPS", "out") ("FUSION", "in");
          connect ("FUSION", "out") ("NAV", "in");
          connect ("NAV", "out") ("GUIDANCE", "in");
          connect ("GUIDANCE", "out") ("CTRL", "in");
          connect ("CTRL", "out") ("ALLOC", "in");
          connect ("ALLOC", "out") ("DRV_THR", "in");
          connect ("FUSION", "out") ("LOG", "in");
          connect ("HEALTH", "out") ("WDT", "in");
        ]
  in
  diagram ~name:"system_b" hw ~connections:hw_connections
    ~subsystems:[ software ]

let reliability_b =
  (* System B adds software: task failure rates are design estimates
     (software has no physics FIT; these drive the relative analysis). *)
  Reliability.Reliability_model.add reliability_a
    {
      Reliability.Reliability_model.component_type = "task";
      fit = Reliability.Fit.of_float 50.0;
      failure_modes =
        [
          {
            Reliability.Reliability_model.fm_name = "Crash";
            distribution_pct = 60.0;
            fault = Some Circuit.Fault.Open_circuit;
            loss_of_function = true;
          };
          {
            Reliability.Reliability_model.fm_name = "Hang";
            distribution_pct = 40.0;
            fault = Some Circuit.Fault.Open_circuit;
            loss_of_function = true;
          };
        ];
    }

let system_b =
  {
    subject_name = "System B";
    diagram =
      pad_to ~target:230 ~rail_block:"L2" ~rail_port:"b" ~ground_block:"GND1"
        system_b_core;
    reliability = reliability_b;
    safety_mechanisms = Reliability.Sm_model.extended_catalogue;
    target = Ssam.Requirement.ASIL_B;
  }

let element_count s = block_count s.diagram

let analysable s = Blockdiag.To_netlist.convert s.diagram

let automated_fmea s =
  let conversion = analysable s in
  let options =
    {
      Fmea.Injection_fmea.default_options with
      exclude = [ "DC1"; "BAT1" ] (* assume the supply is stable *);
      (* Only the designated safety observations count; the padded TPn
         blocks are debug test points. *)
      monitored_sensors = Some [ "CS1"; "CS2"; "VS1" ];
    }
  in
  Fmea.Injection_fmea.analyse ~options
    ~element_types:conversion.Blockdiag.To_netlist.block_types
    conversion.Blockdiag.To_netlist.netlist s.reliability

let ssam_model s =
  let package =
    Blockdiag.Transform.aggregate_reliability s.reliability
      (Blockdiag.Transform.to_ssam s.diagram)
  in
  Ssam.Model.create ~component_packages:[ package ]
    ~meta:(Ssam.Base.meta ~name:s.subject_name ("model:" ^ s.subject_name))
    ()

(* The software control function of System B: the sensor-driver →
   fusion → navigation → guidance → control → allocation → thruster-driver
   chain, analysed by Algorithm 1.  Sensor drivers are alternative inputs
   (any one suffices for degraded operation); the actuation driver is the
   single output. *)
let software_fmea s =
  match s.diagram.Blockdiag.Diagram.subsystems with
  | [] -> invalid_arg "software_fmea: subject has no software subsystem"
  | sw :: _ ->
      let package =
        Blockdiag.Transform.aggregate_reliability s.reliability
          (Blockdiag.Transform.to_ssam sw)
      in
      let children = Ssam.Architecture.top_components package in
      let root_id = "SW" in
      let k = ref 0 in
      let conn a b =
        incr k;
        Ssam.Architecture.relationship
          ~meta:(Ssam.Base.meta (Printf.sprintf "SW:conn:%d" !k))
          ~from_component:a ~to_component:b ()
      in
      let boundary =
        List.filter_map
          (fun (b : Blockdiag.Diagram.block) ->
            let id = b.Blockdiag.Diagram.block_id in
            if String.length id >= 4 && String.sub id 0 4 = "DRV_" then
              if String.equal id "DRV_THR" then Some (conn id root_id)
              else Some (conn root_id id)
            else None)
          sw.Blockdiag.Diagram.blocks
      in
      let internal =
        List.map
          (fun (c : Blockdiag.Diagram.connection) ->
            conn c.Blockdiag.Diagram.from_ep.Blockdiag.Diagram.ep_block
              c.Blockdiag.Diagram.to_ep.Blockdiag.Diagram.ep_block)
          sw.Blockdiag.Diagram.connections
      in
      let root =
        Ssam.Architecture.component ~component_type:Ssam.Architecture.System
          ~children
          ~connections:(boundary @ internal)
          ~meta:(Ssam.Base.meta ~name:"control software" root_id)
          ()
      in
      Fmea.Path_fmea.analyse root
