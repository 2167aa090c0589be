(* Change-impact analysis across DECISIVE iterations.

   "SCSE is incremental and iterative ... every artefact along the
   process of SCSE shall be updated and re-validated to analyse the
   impact of all changes."  This example plays one such iteration: the
   inductor supplier changes (worse FIT), a new hazard is identified, and
   the diff tells us exactly which artefacts are stale before we re-run
   only the affected analysis — through the incremental engine, which
   reuses every FMEA row the change cannot touch.

   Run with: dune exec examples/change_impact.exe *)

open Ssam

let wrap package hazards =
  Model.create ~component_packages:[ package ] ~hazard_packages:hazards
    ~meta:(Base.meta ~name:"psu" "psu-model") ()

let () =
  (* Iteration 1: the Section V design, analysed through the engine so
     iteration 2 can reuse its rows. *)
  let engine = Engine.Pipeline.create () in
  let v1 = wrap Fixtures.Case_study.power_supply_ssam [ Fixtures.Case_study.hazard_h1 ] in
  let fmea_v1 =
    Engine.Pipeline.injection_fmea engine
      ~options:Fixtures.Case_study.injection_options
      Fixtures.Case_study.power_supply_diagram
      Fixtures.Case_study.reliability_model
  in
  Format.printf "iteration 1: SPFM %.2f%% (after ECC: %.2f%%)@.@."
    (Fmea.Metrics.spfm fmea_v1)
    (Fmea.Metrics.spfm (Fixtures.Case_study.fmeda fmea_v1));

  (* Iteration 2's inputs change in two ways. *)
  (* (a) The inductor supplier changes: L1 is now a 40 FIT part. *)
  let degraded_package =
    {
      Fixtures.Case_study.power_supply_ssam with
      Architecture.elements =
        List.map
          (function
            | Architecture.Component c
              when Architecture.component_id c = "L1" ->
                Architecture.Component { c with Architecture.fit = 40.0 }
            | e -> e)
          Fixtures.Case_study.power_supply_ssam.Architecture.elements;
    }
  in
  (* (b) A new hazard is identified: EMC-induced reset of the MCU. *)
  let h2 =
    Hazard.situation ~exposure:Hazard.E3 ~controllability:Hazard.C2
      ~meta:(Base.meta ~name:"MCU resets under EMC burst" "H2")
      ~severity:Hazard.S2 ()
  in
  let hazards_v2 =
    [
      Fixtures.Case_study.hazard_h1;
      Hazard.package
        ~meta:(Base.meta ~name:"iteration-2 hazards" "pkg:hazards:psu2")
        [ Hazard.Situation h2 ];
    ]
  in
  let v2 = wrap degraded_package hazards_v2 in

  (* The impact analysis tells us what is stale. *)
  let impact = Diff.analyse ~old_model:v1 ~new_model:v2 in
  Format.printf "%a@.@." Diff.pp_impact impact;
  assert impact.Diff.reanalysis_required;
  assert impact.Diff.rehara_required;

  (* Re-run HARA for the new hazard... *)
  let log =
    Hara.assess ~name:"iteration-2 hazards" (List.nth hazards_v2 1)
  in
  Format.printf "%a@.@." Hara.pp log;

  (* ...and re-run Step 4a.  The changed FIT moves the metric; the ECC
     deployment from iteration 1 still rescues the design. *)
  let reliability_v2 =
    Reliability.Reliability_model.add Fixtures.Case_study.reliability_model
      {
        Reliability.Reliability_model.component_type = "inductor";
        fit = Reliability.Fit.of_float 40.0;
        failure_modes =
          (Option.get
             (Reliability.Reliability_model.find
                Fixtures.Case_study.reliability_model "inductor"))
            .Reliability.Reliability_model.failure_modes;
      }
  in
  let fmea_v2 =
    Engine.Pipeline.injection_fmea engine
      ~previous:
        {
          Engine.Pipeline.prev_diagram =
            Fixtures.Case_study.power_supply_diagram;
          prev_reliability = Fixtures.Case_study.reliability_model;
          prev_table = fmea_v1;
        }
      ~options:Fixtures.Case_study.injection_options
      Fixtures.Case_study.power_supply_diagram reliability_v2
  in
  let stats = Engine.Pipeline.snapshot engine in
  Format.printf
    "incremental re-analysis: %d cache hit(s), %d row(s) reused, %d solve(s) \
     performed instead of a full re-run@.@."
    (Engine.Stats.hits stats) stats.Engine.Stats.rows_reused
    (Engine.Stats.solves_performed stats);
  let fmeda_v2 = Fixtures.Case_study.fmeda fmea_v2 in
  Format.printf
    "iteration 2: SPFM %.2f%% -> %.2f%% with the existing ECC deployment@."
    (Fmea.Metrics.spfm fmea_v2)
    (Fmea.Metrics.spfm fmeda_v2);
  Format.printf "%a@."
    (fun ppf () ->
      Fmea.Asil.pp_verdict ppf ~target:Requirement.ASIL_B
        ~spfm:(Fmea.Metrics.spfm fmeda_v2))
    ()
