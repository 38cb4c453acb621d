(* Aggregates every test suite in this directory into one alcotest run. *)

let () =
  Alcotest.run "cgra_ilp_map"
    (List.concat [ Test_util.suites; Test_dfg.suites; Test_sat.suites; Test_kernel.suites; Test_drat.suites; Test_ilp.suites; Test_flat.suites; Test_arch.suites; Test_mrrg.suites; Test_core.suites; Test_integration.suites; Test_conn.suites; Test_sim.suites; Test_sweep.suites; Test_backend.suites; Test_serve.suites; Test_fuzz.suites; Test_hall.suites ])
