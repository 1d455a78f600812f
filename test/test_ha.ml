(* Online failover tests (lib/ha): heartbeat detection, epoch-fenced
   recovery under live traffic, retry survival of message loss, and
   determinism of the whole machinery. *)

open Ccpfs_util
open Ccpfs

let params =
  {
    Netsim.Params.rtt = 1e-4;
    b_net = 1e9;
    server_ops = 10_000.;
    b_disk = 5e8;
    b_mem = 2e9;
    ctl_msg_bytes = 128;
    bulk_threshold = 16 * 1024;
    client_io_overhead = 0.;
  }

let config = Config.with_extent_log true Config.default

let make ~clients =
  Cluster.create ~params ~config
    ~reliability:(Netsim.Rpc.reliability_for params)
    ~n_servers:1 ~n_clients:clients ()

(* The closed-loop exp_repl workload in miniature: every client alternates
   between a shared hot range (PW contention) and a private segment
   whose cached grant is alive at crash time.  Returns the cluster, the
   installed ha, and the number of completed writes. *)
let contended_run ?(crash_after = 6) ~clients ~writes_each () =
  let cl = make ~clients in
  let eng = Cluster.engine cl in
  let ha = Ha.Failover.install cl in
  let completed = ref 0 in
  for i = 0 to clients - 1 do
    Cluster.spawn_client cl i ~name:(Printf.sprintf "w%d" i) (fun c ->
        let f = Client.open_file c ~create:true "/ha" in
        let private_off = (i + 1) * 65536 in
        for k = 1 to writes_each do
          let off = if k land 1 = 0 then 0 else private_off in
          Client.write ~mode:Seqdlm.Mode.PW c f ~off ~len:16384;
          incr completed
        done)
  done;
  let tick = Ha.Detector.period (Ha.Failover.detector ha) in
  Dessim.Engine.spawn eng ~name:"crash-injector" (fun () ->
      while !completed < crash_after do
        Dessim.Engine.sleep eng tick
      done;
      ignore (Ha.Failover.crash ha 0);
      while Ha.Failover.records ha = [] do
        Dessim.Engine.sleep eng tick
      done);
  Cluster.run cl;
  Cluster.fsync_all cl;
  (cl, ha, !completed)

let test_failover_under_traffic () =
  let clients = 4 and writes_each = 8 in
  let cl, ha, completed = contended_run ~clients ~writes_each () in
  Alcotest.(check int) "every write completed" (clients * writes_each)
    completed;
  (match Ha.Failover.records ha with
  | [ r ] ->
      Alcotest.(check int) "crashed server" 0 r.f_server;
      Alcotest.(check int) "epoch bumped" 1 r.f_epoch;
      Alcotest.(check bool) "detected after the crash" true
        (r.f_detect > r.f_crash);
      Alcotest.(check bool) "recovered after detection" true
        (r.f_recover > r.f_detect)
  | rs ->
      Alcotest.fail
        (Printf.sprintf "expected exactly one failover, got %d"
           (List.length rs)));
  Alcotest.(check int) "one detection" 1
    (Ha.Detector.detections (Ha.Failover.detector ha));
  Alcotest.(check bool) "outage cost retries" true
    (Cluster.total_retries cl > 0);
  let m = Ha.Failover.membership ha in
  Alcotest.(check string) "server back up" "up"
    (Ha.Membership.state_to_string (Ha.Membership.state m 0));
  Alcotest.(check int) "membership epoch matches" 1 (Ha.Membership.epoch m 0);
  Cluster.check_invariants cl

let test_failover_is_deterministic () =
  ignore
    (Check.Determinism.check ~name:"ha.failover" (fun () ->
         let cl, _, _ = contended_run ~clients:3 ~writes_each:6 () in
         Cluster.engine cl))

let test_healthy_cluster_no_detections () =
  let cl = make ~clients:2 in
  let ha = Ha.Failover.install cl in
  for i = 0 to 1 do
    Cluster.spawn_client cl i ~name:(Printf.sprintf "w%d" i) (fun c ->
        let f = Client.open_file c ~create:true "/quiet" in
        for _ = 1 to 4 do
          Client.write c f ~off:(i * 65536) ~len:16384
        done)
  done;
  Cluster.run cl;
  Cluster.fsync_all cl;
  Alcotest.(check int) "no detections" 0
    (Ha.Detector.detections (Ha.Failover.detector ha));
  Alcotest.(check (list reject)) "no failovers" [] (Ha.Failover.records ha);
  Alcotest.(check int) "epoch still 0" 0
    (Ha.Membership.epoch (Ha.Failover.membership ha) 0);
  Cluster.check_invariants cl

(* Lossy, duplicating network with no crash at all: the retry loop and
   the at-most-once dedup table must make every write land exactly once
   (a duplicated PW write applied twice would trip the invariant sweep
   and the byte checks downstream of it). *)
let test_loss_and_duplication_survived () =
  let cl = make ~clients:2 in
  let rng = Det_random.create ~seed:0xfaded in
  let frand () = Det_random.float rng 1. in
  let ls = Cluster.lock_server cl 0 in
  Netsim.Rpc.set_fault (Seqdlm.Lock_server.lock_endpoint ls) ~loss:0.3
    ~dup:0.2 ~rng:frand;
  Netsim.Rpc.set_fault (Seqdlm.Lock_server.ctl_endpoint ls) ~loss:0.3 ~dup:0.2
    ~rng:frand;
  Netsim.Rpc.set_fault
    (Data_server.endpoint (Cluster.data_server cl 0))
    ~loss:0.3 ~dup:0.2 ~rng:frand;
  let completed = ref 0 in
  for i = 0 to 1 do
    Cluster.spawn_client cl i ~name:(Printf.sprintf "w%d" i) (fun c ->
        let f = Client.open_file c ~create:true "/lossy" in
        for k = 0 to 5 do
          Client.write ~mode:Seqdlm.Mode.PW c f
            ~off:(((k * 2) + i) * 16384)
            ~len:16384;
          incr completed
        done)
  done;
  Cluster.run cl;
  Cluster.fsync_all cl;
  Alcotest.(check int) "every write completed" 12 !completed;
  Alcotest.(check bool) "losses cost retries" true
    (Cluster.total_retries cl > 0);
  Cluster.check_invariants cl

let suite =
  [
    ( "ha.failover",
      [
        Alcotest.test_case "crash under traffic, online recovery" `Quick
          test_failover_under_traffic;
        Alcotest.test_case "failover is deterministic" `Quick
          test_failover_is_deterministic;
        Alcotest.test_case "healthy cluster: no detections" `Quick
          test_healthy_cluster_no_detections;
        Alcotest.test_case "message loss + duplication survived" `Quick
          test_loss_and_duplication_survived;
      ] );
  ]
