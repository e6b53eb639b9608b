let () =
  Alcotest.run "abonn"
    (Test_util.suite @ Test_obs.suite @ Test_tensor.suite @ Test_nn.suite @ Test_spec.suite @ Test_prop.suite @ Test_backsub.suite @ Test_domains.suite @ Test_lp.suite @ Test_lp_warm.suite @ Test_bab.suite @ Test_abonn.suite @ Test_attack.suite @ Test_data.suite @ Test_harness.suite @ Test_trace.suite @ Test_crown.suite @ Test_fuzz.suite @ Test_incremental.suite @ Test_par.suite @ Test_engines.suite @ Test_introspect.suite @ Test_formats.suite @ Test_campaign.suite @ Test_properties.suite)
