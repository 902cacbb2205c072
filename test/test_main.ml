let () =
  Alcotest.run "dotest"
    (Test_util.suites @ Test_geometry.suites @ Test_circuit.suites
    @ Test_layout.suites @ Test_fault.suites @ Test_macro.suites
    @ Test_adc.suites @ Test_testgen.suites @ Test_amplifier.suites
    @ Test_codec.suites @ Test_core.suites @ Test_serve.suites)
