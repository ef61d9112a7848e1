let () =
  Alcotest.run "tawa"
    (Test_tensor.suites @ Test_aref.suites @ Test_ir.suites @ Test_passes.suites @ Test_machine.suites @ Test_frontend.suites @ Test_gpusim.suites @ Test_core.suites @ Test_pool.suites @ Test_baselines.suites @ Test_integration.suites @ Test_fuzz.suites @ Test_examples.suites @ Test_analysis.suites @ Test_statcheck.suites @ Test_engine.suites @ Test_obs.suites @ Test_modes.suites @ Test_autotune.suites @ Test_graph.suites @ Test_prof.suites @ Test_fingerprint.suites @ Test_golden.suites)
