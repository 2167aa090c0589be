(* System B: the AUV main control unit (hardware + software).

   Runs the full DECISIVE loop of Fig. 1 on the 230-element evaluation
   subject: hazard assessment, automated FMEA, safety-mechanism search to
   ASIL-B, and — because the MCU is declared dynamic — generation of a
   runtime monitor from the SSAM model (future work VIII.4).

   Run with: dune exec examples/auv_control.exe *)

let () =
  let subject = Fixtures.Systems.system_b in
  Format.printf "System B: %d design elements (%d blocks incl. software tasks)@."
    (Fixtures.Systems.element_count subject)
    (List.length (Blockdiag.Diagram.all_blocks subject.Fixtures.Systems.diagram));

  (* The full loop: plan → design → reliability → evaluate → refine →
     safety concept. *)
  let process, table, _deployments =
    Decisive.Api.run_decisive ~name:"AUV control unit"
      ~target:subject.Fixtures.Systems.target ~exclude:[ "BAT1" ]
      ~monitored_sensors:[ "CS1"; "CS2"; "VS1" ]
      subject.Fixtures.Systems.diagram subject.Fixtures.Systems.reliability
      subject.Fixtures.Systems.safety_mechanisms
  in
  Format.printf "%a@." Decisive.Process.pp_history process;
  Format.printf "%a@." Fmea.Metrics.pp_breakdown (Fmea.Metrics.compute table);
  Format.printf "safety concept produced: %b@.@."
    (Decisive.Process.is_complete process);

  (* The software control function, analysed by Algorithm 1: tasks on
     every sensor→thruster path are single points; the redundant sensor
     drivers are not. *)
  let sw = Fixtures.Systems.software_fmea subject in
  Format.printf "software single points: %s@."
    (String.concat ", " (Fmea.Table.safety_related_components sw));
  let refinement =
    Decisive.Api.refine ~target:Ssam.Requirement.ASIL_B
      ~component_types:
        (List.map (fun c -> (c, "task")) (Fmea.Table.components sw))
      sw subject.Fixtures.Systems.safety_mechanisms
  in
  Format.printf "software SPFM %.2f%% -> %.2f%% after %s@.@."
    (Fmea.Metrics.spfm sw) refinement.Decisive.Api.achieved_spfm
    (match refinement.Decisive.Api.chosen with
    | Some c ->
        Printf.sprintf "%d mechanism deployments (cost %.1f h)"
          (List.length c.Optimize.Search.deployments)
          c.Optimize.Search.cost
    | None -> "no viable deployment");

  (* Software blocks federate into SSAM as Software components. *)
  let model = Fixtures.Systems.ssam_model subject in
  let components = Ssam.Model.components model in
  let software =
    List.filter
      (fun (c : Ssam.Architecture.component) ->
        c.Ssam.Architecture.component_type = Ssam.Architecture.Software)
      components
  in
  Format.printf "SSAM model: %d elements, %d components (%d software)@.@."
    (Ssam.Model.count_elements model)
    (List.length components) (List.length software);

  (* Runtime monitoring (future work VIII.4): declare the supply-rail IO
     of the MCU dynamic with limits, generate a monitor, feed it
     telemetry. *)
  let mcu_dynamic =
    Ssam.Architecture.component ~dynamic:true
      ~io_nodes:
        [
          Ssam.Architecture.io_node ~value:24.0 ~lower_limit:21.0
            ~upper_limit:26.5
            ~meta:(Ssam.Base.meta ~name:"vdd" "MC1:io:vdd")
            Ssam.Architecture.Input;
        ]
      ~meta:(Ssam.Base.meta ~name:"MC1" "MC1:dyn")
      ()
  in
  let monitor = Fixtures.Monitor.generate_component mcu_dynamic in
  Format.printf "generated %d runtime checks from the SSAM model@."
    (List.length (Fixtures.Monitor.checks monitor));
  let telemetry =
    [ (0.0, 24.1); (1.0, 23.8); (2.0, 20.4) (* brown-out *); (3.0, 24.0) ]
  in
  List.iter
    (fun (t, v) ->
      match
        Fixtures.Monitor.observe monitor ~component:"MC1:dyn" ~node:"MC1:io:vdd"
          ~value:v ~at:t
      with
      | Some violation ->
          Format.printf "VIOLATION %a@." Fixtures.Monitor.pp_violation violation
      | None -> Format.printf "t=%g vdd=%g ok@." t v)
    telemetry
