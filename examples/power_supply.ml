(* The full Section V case study: the sensor power-supply SEooC.

   Follows DECISIVE end to end on both analysis routes of the paper —
   failure injection on the circuit model (Sec. V-A, the Simulink path)
   and the path algorithm on the SSAM twin (Sec. V-B) — and reproduces
   the published numbers: SPFM 5.38 % before refinement, 96.77 % with ECC
   on MC1 (ASIL-B), Table IV row for row.  Finishes with the assurance
   case integration of Sec. V-C.

   Run with: dune exec examples/power_supply.exe *)

let hr title = Format.printf "@.=== %s ===@.@." title

let () =
  hr "DECISIVE Step 1: hazard identification";
  let log = Hara.assess ~name:"PSU hazards" Fixtures.Case_study.hazard_h1 in
  Format.printf "%a@." Hara.pp log;
  let requirements = Hara.derive_requirements log in
  List.iter
    (fun (r : Ssam.Requirement.requirement) ->
      Format.printf "derived %s [%s]: %s@."
        (Ssam.Base.display_name r.Ssam.Requirement.meta)
        (match r.Ssam.Requirement.integrity with
        | Some l -> Ssam.Requirement.integrity_level_to_string l
        | None -> "-")
        r.Ssam.Requirement.text)
    requirements;
  Format.printf
    "the paper assigns safety requirement SR-1 a target of ASIL-B@.";

  hr "Step 2: the system design (Fig. 11)";
  Format.printf "%s@."
    (Blockdiag.Text_format.print Fixtures.Case_study.power_supply_diagram);

  hr "Steps 3 + 4a via failure injection (the Simulink route, Sec. V-A)";
  let injection_table = Fixtures.Case_study.fmea_via_injection () in
  Format.printf "%a@." Fmea.Table.pp injection_table;
  Format.printf "SPFM = %.2f%% (paper: 5.38%%)@."
    (Fmea.Metrics.spfm injection_table);

  hr "Steps 3 + 4a via SSAM + Algorithm 1 (Sec. V-B)";
  let ssam_table = Fixtures.Case_study.fmea_via_ssam () in
  Format.printf "%a@." Fmea.Table.pp ssam_table;
  Format.printf "SPFM = %.2f%%  — both routes agree: %b@."
    (Fmea.Metrics.spfm ssam_table)
    (List.sort String.compare (Fmea.Table.safety_related_components injection_table)
    = List.sort String.compare (Fmea.Table.safety_related_components ssam_table));

  hr "Step 4b: deploy ECC on MC1 (Table III) — Table IV";
  let fmeda = Fixtures.Case_study.fmeda injection_table in
  Format.printf "%a@." Fmea.Table.pp fmeda;
  let spfm = Fmea.Metrics.spfm fmeda in
  Format.printf "SPFM = %.2f%% (paper: 96.77%%)@." spfm;
  Format.printf "%a@."
    (fun ppf () ->
      Fmea.Asil.pp_verdict ppf ~target:Ssam.Requirement.ASIL_B ~spfm)
    ();

  hr "Step 5 + Sec. V-C: assurance case integration";
  let csv = Filename.temp_file "fmeda" ".csv" in
  Decisive.Api.export_fmeda ~path:csv fmeda;
  let case =
    Decisive.Api.assurance_case_for ~system:"PSU"
      ~target:Ssam.Requirement.ASIL_B ~fmeda_csv:csv
  in
  let report = Assurance.Eval.evaluate case in
  Format.printf "%a@." Assurance.Eval.pp_report report;
  Sys.remove csv;

  hr "Bonus: the generated fault tree (future work VIII.1)";
  let tree = Fta.From_ssam.generate Fixtures.Case_study.power_supply_root in
  Format.printf "%a@." Fta.Fault_tree.pp_ascii tree;
  let cuts = Fta.Cut_sets.minimal tree in
  let probs = Fta.Quant.event_probabilities tree in
  Format.printf "minimal cut sets: %d; top-event bound over 10,000 h: %.3e@."
    (List.length cuts)
    (Fta.Quant.rare_event_bound cuts probs)
