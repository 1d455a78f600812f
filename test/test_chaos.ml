(* Randomised end-to-end coherence, driven by the simulation fuzzer:
   QCheck picks case seeds, [Fuzz.Gen] derives a random cluster
   (policies, striping, cache limits, event jitter, crash schedules) and
   workload, and [Fuzz.Exec] runs it twice under the full oracle stack —
   protocol invariants, determinism fingerprints, the byte-exact
   shadow-file model and the Eq. (1) differential check.  This subsumes
   the old hand-rolled chaos harness (checksum agreement across clients
   is implied by byte-exact device contents): any interleaving must
   terminate and explain every surviving byte.

   The QCheck stream is seeded from CCPFS_SEED (see [Fuzz.Seed]), and
   every failure message prints the case seed, so a CI hit is replayed
   with `ccpfs_run fuzz --seed N --shrink`. *)

let print_seed s = Fuzz.Case.summary (Fuzz.Gen.of_seed s)

let prop_chaos =
  QCheck.Test.make
    ~name:"chaos: random cluster runs pass invariants, determinism and oracles"
    ~count:40
    (QCheck.make ~print:print_seed QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      match Fuzz.Exec.catch (Fuzz.Gen.of_seed seed) with
      | Ok _ -> true
      | Error reason ->
          QCheck.Test.fail_reportf
            "seed %d: %s@.replay: ccpfs_run fuzz --seed %d --shrink" seed
            reason seed)

(* A handful of pinned seeds so the deterministic corpus is exercised
   even when the QCheck stream moves (e.g. under a CCPFS_SEED override).
   24385 crashes a lock server online and migrates one of its resources
   away before recovery: the migration must abort, or the target
   restarts the resource's sequencer under locks clients still cache. *)
let test_fixed_seeds () =
  List.iter
    (fun seed ->
      match Fuzz.Exec.catch (Fuzz.Gen.of_seed seed) with
      | Ok _ -> ()
      | Error reason ->
          Alcotest.fail (Printf.sprintf "seed %d: %s" seed reason))
    [ 0; 1; 7; 42; 1234; 99991; 24385 ]

let suite =
  [
    ( "pfs.chaos",
      [
        Alcotest.test_case "fixed corpus seeds" `Quick test_fixed_seeds;
        QCheck_alcotest.to_alcotest ~rand:(Fuzz.Seed.rand_state ()) ~long:false
          prop_chaos;
      ] );
  ]
