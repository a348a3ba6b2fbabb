let () =
  Alcotest.run "ompgpu"
    [
      ("support", Test_support.suite);
      ("ir", Test_ir.suite);
      ("analysis", Test_analysis.suite);
      ("frontend", Test_frontend.suite);
      ("gpusim", Test_gpusim.suite);
      ("gpusim-ledger", Test_gpusim_ledger.suite);
      ("interp-ops", Test_interp_ops.suite);
      ("openmpopt", Test_openmpopt.suite);
      ("passes-ir", Test_passes_ir.suite);
      ("proxyapps", Test_proxyapps.suite);
      ("harness", Test_harness.suite);
      ("wave3", Test_wave3.suite);
      ("observe", Test_observe.suite);
      ("report-golden", Test_report_golden.suite);
      ("sched", Test_sched.suite);
      ("fault", Test_fault.suite);
      ("pipeline", Test_pipeline.suite);
      ("service", Test_service.suite);
      ("resilience", Test_resilience.suite);
      ("fleet", Test_fleet.suite);
      ("storage", Test_storage.suite);
      ("fuzz", Test_fuzz.suite);
      ("corpus", Test_corpus.suite);
    ]
