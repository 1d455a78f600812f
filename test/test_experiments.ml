(* Behavioural tests of the experiment harness: at tiny scale, the
   paper's qualitative claims must already hold (who wins, in which
   direction) — these are the assertions behind the bench output. *)

open Ccpfs_util

let seg_streams ~clients ~xfer ~blocks =
  Array.init clients (fun rank ->
      ( "/t",
        Workloads.Ior.accesses ~pattern:Workloads.Access.N1_segmented
          ~nprocs:clients ~rank ~xfer ~blocks ))

let strided_streams ~clients ~xfer ~blocks =
  Array.init clients (fun rank ->
      ( "/t",
        Workloads.Ior.accesses ~pattern:Workloads.Access.N1_strided
          ~nprocs:clients ~rank ~xfer ~blocks ))

let test_harness_pio_excludes_async_flush () =
  (* A single client writing into the cache finishes its PIO long before
     the data is durable: F must carry the flush cost. *)
  let streams =
    [| ("/a", List.init 64 (fun k -> { Workloads.Access.off = k * Units.mib;
                                       len = Units.mib }) ) |]
  in
  let r = Experiments.Harness.run_streams ~servers:1 ~stripes:1 ~streams () in
  Alcotest.(check bool) "F dominates PIO for cached writes" true (r.f > r.pio);
  Alcotest.(check int) "bytes accounted" (64 * Units.mib) r.bytes

let test_seqdlm_beats_baselines_on_strided () =
  let run policy =
    (Experiments.Harness.run_streams ~policy ~servers:1 ~stripes:1
       ~streams:(strided_streams ~clients:8 ~xfer:(64 * Units.kib) ~blocks:40)
       ())
      .Experiments.Harness.pio
  in
  let seq = run Seqdlm.Policy.seqdlm in
  let basic = run Seqdlm.Policy.dlm_basic in
  let lustre = run Seqdlm.Policy.dlm_lustre in
  Alcotest.(check bool)
    (Printf.sprintf "SeqDLM (%.4fs) at least 2x faster than DLM-basic (%.4fs)"
       seq basic)
    true
    (basic > 2. *. seq);
  Alcotest.(check bool) "and than DLM-Lustre" true (lustre > 2. *. seq)

let test_low_contention_parity () =
  (* Table III's claim: segmented writes cost the same under all three
     policies (within 10%). *)
  let run policy =
    (Experiments.Harness.run_streams ~policy ~servers:1 ~stripes:1
       ~streams:(seg_streams ~clients:8 ~xfer:(64 * Units.kib) ~blocks:40)
       ())
      .Experiments.Harness.pio
  in
  let seq = run Seqdlm.Policy.seqdlm in
  let basic = run Seqdlm.Policy.dlm_basic in
  Alcotest.(check bool)
    (Printf.sprintf "parity (SeqDLM %.4fs vs basic %.4fs)" seq basic)
    true
    (seq < 1.1 *. basic && basic < 1.1 *. seq)

let test_early_grant_decouples_flush () =
  (* Fig. 20(b)'s claim, in miniature: under strided contention the
     SeqDLM PIO share of total IO time is far below the baselines'. *)
  let share policy =
    let r =
      Experiments.Harness.run_streams ~policy ~servers:1 ~stripes:1
        ~streams:(strided_streams ~clients:8 ~xfer:(256 * Units.kib) ~blocks:20)
        ()
    in
    r.Experiments.Harness.pio /. (r.pio +. r.f)
  in
  let seq = share Seqdlm.Policy.seqdlm in
  let basic = share Seqdlm.Policy.dlm_basic in
  Alcotest.(check bool)
    (Printf.sprintf "PIO share: SeqDLM %.0f%% < basic %.0f%%" (seq *. 100.)
       (basic *. 100.))
    true (seq < basic)

let test_er_improves_small_writes () =
  let tp policy =
    let streams =
      Array.init 8 (fun _ ->
          ("/c", List.init 50 (fun _ -> { Workloads.Access.off = 0; len = 64 * Units.kib })))
    in
    let r =
      Experiments.Harness.run_streams ~policy ~mode:Seqdlm.Mode.NBW ~lock_whole_range:true
        ~servers:1 ~stripes:1 ~streams ()
    in
    float_of_int r.Experiments.Harness.ops /. r.pio
  in
  let er = tp Seqdlm.Policy.seqdlm in
  let no_er = tp (Seqdlm.Policy.without_early_revocation Seqdlm.Policy.seqdlm) in
  Alcotest.(check bool)
    (Printf.sprintf "ER throughput %.0f > no-ER %.0f" er no_er)
    true (er > no_er)

let test_scaled_helper () =
  Alcotest.(check int) "floor at 1" 1 (Experiments.Harness.scaled ~scale:0.001 100);
  Alcotest.(check int) "rounds" 5 (Experiments.Harness.scaled ~scale:0.05 100);
  Alcotest.(check int) "identity" 100 (Experiments.Harness.scaled ~scale:1.0 100)

let test_registry_complete () =
  let ids = List.map (fun (e : Experiments.Registry.t) -> e.id)
      Experiments.Registry.all
  in
  List.iter
    (fun id ->
      Alcotest.(check bool) ("registry has " ^ id) true (List.mem id ids))
    [ "model"; "fig04"; "fig05"; "fig17"; "fig18"; "fig19"; "table3";
      "fig20"; "fig21"; "fig23"; "fig24"; "safety" ];
  Alcotest.(check bool) "find works" true
    (Experiments.Registry.find "fig20" <> None);
  Alcotest.(check bool) "unknown id" true
    (Experiments.Registry.find "fig99" = None)

let test_model_agrees_with_sim () =
  (* The Eq. (1) validation inside exp_model, as an assertion. *)
  let d = Units.mib and n = 8 in
  let params =
    { Netsim.Params.default with b_mem = infinity; client_io_overhead = 0. }
  in
  let streams =
    Array.init n (fun _ -> ("/v", [ { Workloads.Access.off = 0; len = d } ]))
  in
  let r =
    Experiments.Harness.run_streams ~params ~policy:Seqdlm.Policy.dlm_basic
      ~mode:Seqdlm.Mode.PW ~servers:1 ~stripes:1 ~streams ()
  in
  let model = Analytic.Model.bandwidth_exact params ~n ~d in
  let ratio = r.bandwidth /. model in
  Alcotest.(check bool)
    (Printf.sprintf "sim within 15%% of Eq. 1 (ratio %.2f)" ratio)
    true
    (ratio > 0.85 && ratio < 1.15)

(* exp_repl's closed-loop gather run is the workload of the retired
   failover experiment at the same fault point: at 8 clients it must
   reproduce that experiment's last committed row field for field,
   throughput series included. *)
let test_repl_gather_reproduces_failover_row () =
  let m =
    Experiments.Exp_repl.run_closed ~clients:8 ~writes_each:32 ~replication:0
  in
  let row = Experiments.Exp_repl.row_of m in
  List.iter
    (fun (key, want) ->
      let got =
        match Obs.Json.member key row with
        | Some v -> Obs.Json.to_string v
        | None -> "<missing>"
      in
      Alcotest.(check string) key want got)
    [
      ("crash_s", "0.0021");
      ("unavailability_s", "0.000751420312148");
      ("retries", "128");
      ("reinstalled_locks", "9");
      ("dropped_waiters", "6");
      ("replayed_bytes", "131072");
      ("throughput_bucket_s", "0.000422984449902");
      ( "throughput_ops",
        "[17,12,13,12,13,1,0,9,11,5,13,12,13,13,12,13,13,13,12,13,11,10,10,5]" );
    ]

let suite =
  [
    ( "experiments.harness",
      [
        Alcotest.test_case "PIO excludes async flushing" `Quick
          test_harness_pio_excludes_async_flush;
        Alcotest.test_case "scaled helper" `Quick test_scaled_helper;
        Alcotest.test_case "registry covers all artefacts" `Quick
          test_registry_complete;
      ] );
    ( "experiments.claims",
      [
        Alcotest.test_case "SeqDLM beats baselines on strided" `Slow
          test_seqdlm_beats_baselines_on_strided;
        Alcotest.test_case "low-contention parity (Table III)" `Quick
          test_low_contention_parity;
        Alcotest.test_case "early grant decouples flushing (Fig. 20b)" `Quick
          test_early_grant_decouples_flush;
        Alcotest.test_case "ER improves small writes (Fig. 18)" `Quick
          test_er_improves_small_writes;
        Alcotest.test_case "simulator matches Eq. 1" `Quick
          test_model_agrees_with_sim;
        Alcotest.test_case "repl gather reproduces the failover row" `Quick
          test_repl_gather_reproduces_failover_row;
      ] );
  ]
