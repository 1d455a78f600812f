(* Tag every test-case name with the active base seed (CCPFS_SEED or
   the default), so any failure message carries the seed needed to
   replay it — randomized suites draw their QCheck streams from the
   same seed via [Fuzz.Seed.rand_state]. *)
let with_seed (name, cases) =
  (name, List.map (fun (n, speed, fn) -> (Fuzz.Seed.label n, speed, fn)) cases)

let () =
  Alcotest.run "seqdlm"
    (List.map with_seed
       (List.concat
          [
            Test_util.suite;
            Test_obs.suite;
            Test_sim.suite;
            Test_net.suite;
            Test_dlm.suite;
            Test_pfs.suite;
            Test_workloads.suite;
            Test_analytic.suite;
            Test_recovery.suite;
            Test_chaos.suite;
            Test_check.suite;
            Test_meta.suite;
            Test_experiments.suite;
            Test_load.suite;
            Test_fuzz.suite;
            Test_ha.suite;
            Test_repl.suite;
            Test_shard.suite;
            Test_validate.suite;
            Test_lint.suite;
          ]))
