type efficiency_row = {
  system : string;
  participant : string;
  mode : Cost_model.mode;
  time_minutes : float;
  iterations : int;
}

let run_one ~rng ~profile ~mode sp =
  let iterations = Process.draw_iterations ~rng ~mode in
  let session = Process.duration ~rng ~mode ~profile ~iterations sp in
  {
    system = sp.Process.system_name;
    participant = profile.Cost_model.participant;
    mode;
    time_minutes = session.Process.minutes;
    iterations = session.Process.iterations;
  }

let efficiency_study ~seed ~systems:(sys_a, sys_b) =
  let rng = Assess.Rng.create seed in
  let a = Cost_model.participant_a and b = Cost_model.participant_b in
  (* Setting 1: participant A manual, participant B assisted. *)
  let setting1 =
    [
      run_one ~rng ~profile:a ~mode:Cost_model.Manual sys_a;
      run_one ~rng ~profile:b ~mode:Cost_model.Assisted sys_a;
      run_one ~rng ~profile:a ~mode:Cost_model.Manual sys_b;
      run_one ~rng ~profile:b ~mode:Cost_model.Assisted sys_b;
    ]
  in
  (* Setting 2: roles swapped. *)
  let setting2 =
    [
      run_one ~rng ~profile:a ~mode:Cost_model.Assisted sys_a;
      run_one ~rng ~profile:b ~mode:Cost_model.Manual sys_a;
      run_one ~rng ~profile:a ~mode:Cost_model.Assisted sys_b;
      run_one ~rng ~profile:b ~mode:Cost_model.Manual sys_b;
    ]
  in
  setting1 @ setting2

let speedup rows =
  let mean mode =
    let selected = List.filter (fun r -> r.mode = mode) rows in
    match selected with
    | [] -> nan
    | _ ->
        List.fold_left (fun acc r -> acc +. r.time_minutes) 0.0 selected
        /. float_of_int (List.length selected)
  in
  mean Cost_model.Manual /. mean Cost_model.Assisted

type correctness_result = {
  corr_system : string;
  difference_pct : float;
  components_agree : bool;
}

let correctness_study ~seed ~name ~element_count automated_table =
  let rng = Assess.Rng.create seed in
  let complexity = sqrt (float_of_int element_count /. 100.0) in
  let profile =
    let base = Cost_model.participant_a in
    { base with Cost_model.conservatism = base.Cost_model.conservatism *. complexity }
  in
  let manual =
    Process.manual_classification ~rng ~profile automated_table
  in
  let difference_pct =
    Fmea.Table.merge_sensitivity ~golden:automated_table ~other:manual
  in
  let components_agree =
    List.sort String.compare (Fmea.Table.safety_related_components automated_table)
    = List.sort String.compare (Fmea.Table.safety_related_components manual)
  in
  { corr_system = name; difference_pct; components_agree }

let pp_efficiency ppf rows =
  Format.fprintf ppf
    "@[<v>| System | Participant | Time spent (minutes) | No. Iterations |@,\
     |--------+-------------+----------------------+----------------|@,";
  List.iter
    (fun r ->
      Format.fprintf ppf "| %-6s | %-11s | %20.0f | %14d |@," r.system
        (Printf.sprintf "%s(%s)" r.participant
           (match r.mode with
           | Cost_model.Manual -> "Man."
           | Cost_model.Assisted -> "Auto."))
        r.time_minutes r.iterations)
    rows;
  Format.fprintf ppf "@]"
