let () =
  Alcotest.run "cutshortcut"
    (Test_bits.suite @ Test_frontend.suite @ Test_interp.suite @ Test_solver.suite @ Test_csc.suite @ Test_datalog.suite @ Test_datalog_analysis.suite @ Test_workloads.suite @ Test_driver.suite @ Test_clients.suite @ Test_static.suite @ Test_property.suite @ Test_lang_ext.suite @ Test_jdk_ext.suite @ Test_validate.suite @ Test_robustness.suite @ Test_common_more.suite @ Test_csc_containers.suite @ Test_datalog_more.suite @ Test_context.suite @ Test_misc.suite @ Test_cfg.suite
    @ Test_dataflow.suite @ Test_checks.suite @ Test_obs.suite @ Test_attr.suite
    @ Test_fuzz.suite @ Test_taint.suite @ Test_server.suite @ Test_edit.suite @ Test_pinned.suite)
