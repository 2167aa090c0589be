(* Automated assurance-case re-evaluation across a design change (Sec. V-C).

   "When our design changes, it is reflected in the FMEDA result, which can
   in turn be automatically checked by ACME (by executing the query)."

   This example runs the flow both ways: a weak design whose FMEDA makes
   the case FAIL, then the refined design whose regenerated FMEDA makes
   the same case HOLD — no change to the case itself, only to the cited
   artefact.

   Run with: dune exec examples/assurance_flow.exe *)

let evaluate_against csv_path label =
  let case =
    Decisive.Api.assurance_case_for ~system:"PSU"
      ~target:Ssam.Requirement.ASIL_B ~fmeda_csv:csv_path
  in
  let report = Assurance.Eval.evaluate case in
  Format.printf "--- %s ---@.%a@.@." label Assurance.Eval.pp_report report;
  report.Assurance.Eval.overall

let () =
  let csv = Filename.temp_file "fmeda" ".csv" in

  (* Iteration 1: the unrefined design (SPFM 5.38 % — far below ASIL-B). *)
  let before = Fixtures.Case_study.fmea_via_injection () in
  Decisive.Api.export_fmeda ~path:csv before;
  let v1 = evaluate_against csv "iteration 1: unrefined design" in
  assert (v1 = Assurance.Eval.Fails);

  (* Iteration 2: Step 4b deploys ECC, the FMEDA artefact is regenerated,
     and re-running the *same* case now succeeds. *)
  let after = Fixtures.Case_study.fmeda before in
  Decisive.Api.export_fmeda ~path:csv after;
  let v2 = evaluate_against csv "iteration 2: ECC deployed on MC1" in
  assert (v2 = Assurance.Eval.Holds);

  (* Evidence disappearing (e.g. a broken CI artefact) degrades the case
     to UNDETERMINED rather than silently passing. *)
  Sys.remove csv;
  let v3 = evaluate_against csv "artefact missing" in
  assert (v3 = Assurance.Eval.Undetermined);
  Format.printf
    "design change propagated through the FMEDA artefact to the assurance \
     verdict: FAILS -> HOLDS -> UNDETERMINED@."
