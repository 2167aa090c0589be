(* Table I: FMEDA of a Phase-Locked Loop.

   The PLL is the paper's running FMEDA illustration: three failure modes
   (lower frequency 40.1 % DVF, higher frequency 28.7 % IVF, jitter
   31.2 % DVF) with a time-out watchdog (70 %) on the first and dual-core
   lockstep (99 %) on the third.  This example reproduces the table and
   shows the same component modelled in SSAM, validated, and pushed
   through the metric calculation.

   Run with: dune exec examples/pll_fmeda.exe *)

let () =
  let fit = 50.0 in
  let table = Fixtures.Case_study.pll_fmeda ~fit in
  Format.printf "%a@." Fmea.Table.pp table;
  Format.printf "%a@.@." Fmea.Metrics.pp_breakdown (Fmea.Metrics.compute table);

  (* The same PLL as an SSAM component, with its safety mechanisms
     attached to the failure modes they diagnose. *)
  let pll = Fixtures.Case_study.pll_component in
  Format.printf "SSAM PLL component: %d elements, FIT %g@."
    (Ssam.Architecture.count_elements pll)
    pll.Ssam.Architecture.fit;
  List.iter
    (fun (sm : Ssam.Architecture.safety_mechanism) ->
      Format.printf "  SM %-20s coverage %5.1f%%  cost %.1f h  covers %s@."
        (Ssam.Base.display_name sm.Ssam.Architecture.sm_meta)
        sm.Ssam.Architecture.coverage_pct sm.Ssam.Architecture.sm_cost
        (String.concat ", " sm.Ssam.Architecture.covers))
    pll.Ssam.Architecture.safety_mechanisms;

  (* Wrap it in a model and validate. *)
  let package =
    Ssam.Architecture.package
      ~meta:(Ssam.Base.meta ~name:"pll-package" "pkg:pll")
      [ Ssam.Architecture.Component pll ]
  in
  let model =
    Ssam.Model.create ~component_packages:[ package ]
      ~meta:(Ssam.Base.meta ~name:"pll-model" "model:pll")
      ()
  in
  let findings = Ssam.Validate.findings model in
  Format.printf "validation: %d finding(s)@." (List.length findings);
  List.iter (fun f -> Format.printf "  %a@." Ssam.Validate.pp_finding f) findings;

  (* What would it take to push this PLL to ASIL-D?  Ask the optimiser. *)
  let chosen, front =
    Optimize.Search.optimise
      ~component_types:[ ("PLL", "pll") ]
      ~target:Ssam.Requirement.ASIL_D table
      Reliability.Sm_model.extended_catalogue
  in
  Format.printf "@.Pareto front for further refinement:@.";
  List.iter
    (fun (c : Optimize.Search.candidate) ->
      Format.printf "  cost %4.1f h  SPFM %6.2f%%@." c.Optimize.Search.cost
        c.Optimize.Search.spfm_pct)
    front;
  match chosen with
  | Some c ->
      Format.printf "ASIL-D reachable at cost %.1f h (SPFM %.2f%%)@."
        c.Optimize.Search.cost c.Optimize.Search.spfm_pct
  | None ->
      Format.printf
        "ASIL-D is not reachable with the current mechanism catalogue@."
