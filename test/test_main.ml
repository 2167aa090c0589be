(* Aggregated test runner: one suite per library. *)

let () =
  Alcotest.run "decisive"
    [
      ("numeric", Test_numeric.suite);
      ("exec", Test_exec.suite);
      ("modelio", Test_modelio.suite);
      ("ssam", Test_ssam.suite);
      ("allocation", Test_allocation.suite);
      ("diff", Test_diff.suite);
      ("engine", Test_engine.suite);
      ("query", Test_query.suite);
      ("typecheck", Test_typecheck.suite);
      ("graph", Test_graph.suite);
      ("circuit", Test_circuit.suite);
      ("transient", Test_circuit.transient_suite);
      ("ac", Test_circuit.ac_suite);
      ("cross-validation", Test_circuit.cross_validation_suite);
      ("generator", Test_circuit.generator_suite);
      ("blockdiag", Test_blockdiag.suite);
      ("reliability", Test_reliability.suite);
      ("lint", Test_lint.suite);
      ("dataflow", Test_dataflow.suite);
      ("fmea", Test_fmea.suite);
      ("degradation", Test_fmea.degradation_suite);
      ("optimize", Test_optimize.suite);
      ("fta", Test_fta.suite);
      ("assess", Test_assess.suite);
      ("fta-export", Test_fta.export_suite);
      ("hara", Test_hara.suite);
      ("assurance", Test_assurance.suite);
      ("gsn-render", Test_assurance.render_suite);
      ("analyst", Test_analyst.suite);
      ("store", Test_store.suite);
      ("serve", Test_serve.suite);
      ("decisive", Test_decisive.suite);
      ("software-fmea", Test_decisive.software_suite);
      ("cli", Test_cli.suite);
    ]
