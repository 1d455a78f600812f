(* Server recovery tests (§IV-C2): lock-state gathering from clients,
   extent-log replay, and sequence-number floor restoration. *)

open Ccpfs_util
open Dessim
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
  Cluster.create ~params ~config ~n_servers:1 ~n_clients:clients ()

let test_recovery_round_trip () =
  let cl = make ~clients:3 in
  for i = 0 to 2 do
    Cluster.spawn_client cl i ~name:(Printf.sprintf "w%d" i) (fun c ->
        let f = Client.open_file c ~create:true "/rec" in
        for k = 0 to 9 do
          Client.write c f ~off:(((k * 3) + i) * 8192) ~len:8192
        done;
        Client.fsync c)
  done;
  Cluster.run cl;
  let ls = Cluster.lock_server cl 0 in
  let file = ref None in
  Cluster.spawn_client cl 0 ~name:"open" (fun c ->
      file := Some (Client.open_file c "/rec"));
  Cluster.run cl;
  let rid = Layout.rid ~fid:(Client.fid (Option.get !file)) ~stripe:0 in
  let before = Seqdlm.Lock_server.granted_locks ls rid in
  let sn_before = Seqdlm.Lock_server.next_sn ls rid in
  let cache_before =
    Data_server.extent_cache_of (Cluster.data_server cl 0) rid
  in

  Cluster.crash_and_recover_server cl 0;

  let after = Seqdlm.Lock_server.granted_locks ls rid in
  Alcotest.(check bool) "lock table regathered" true (before <> []);
  Alcotest.(check bool) "same locks: ids, clients, modes, ranges, SNs, states"
    true (after = before);
  Alcotest.(check bool) "SN floor restored" true
    (Seqdlm.Lock_server.next_sn ls rid >= sn_before);
  let cache_after = Data_server.extent_cache_of (Cluster.data_server cl 0) rid in
  let canonical entries =
    Extent_map.to_list
      (Extent_map.coalesce ~eq:Int.equal (Extent_map.of_list entries))
  in
  Alcotest.(check bool) "extent cache rebuilt from log" true
    (canonical cache_before = canonical cache_after)

let test_post_recovery_data_safety () =
  (* Conflicting writes continue after recovery: SNs must not collide
     with pre-crash data, and readback stays correct. *)
  let cl = make ~clients:2 in
  for i = 0 to 1 do
    Cluster.spawn_client cl i ~name:(Printf.sprintf "pre%d" i) (fun c ->
        let f = Client.open_file c ~create:true "/pr" in
        Client.write c f ~off:0 ~len:65536)
  done;
  Cluster.run cl;
  Cluster.fsync_all cl;

  Cluster.crash_and_recover_server cl 0;

  (* Post-crash overwrites must win over pre-crash data. *)
  for i = 0 to 1 do
    Cluster.spawn_client cl i ~name:(Printf.sprintf "post%d" i) (fun c ->
        let f = Client.open_file c "/pr" in
        Client.write c f ~off:0 ~len:65536)
  done;
  Cluster.run cl;
  Cluster.fsync_all cl;
  let file = ref None in
  Cluster.spawn_client cl 0 ~name:"open" (fun c ->
      file := Some (Client.open_file c "/pr"));
  Cluster.run cl;
  let contents = Cluster.stripe_contents cl (Option.get !file) ~stripe:0 in
  (match Content.read contents (Interval.v ~lo:0 ~hi:65536) with
  | segs ->
      Alcotest.(check bool) "post-crash writer won everywhere" true
        (List.for_all
           (fun (_, tag) ->
             match tag with
             | Some (t : Content.tag) -> t.Content.op >= 2
             | None -> false)
           segs));
  Cluster.check_invariants cl

let test_recovery_requires_extent_log () =
  let cl =
    Cluster.create ~params ~config:Config.default ~n_servers:1 ~n_clients:1 ()
  in
  Cluster.spawn_client cl 0 ~name:"w" (fun c ->
      let f = Client.open_file c ~create:true "/x" in
      Client.write c f ~off:0 ~len:4096;
      Client.fsync c);
  Cluster.run cl;
  Alcotest.check_raises "needs the log"
    (Invalid_argument "ds0: recovery needs the extent log") (fun () ->
      Cluster.crash_and_recover_server cl 0)

let test_crash_refuses_queued_waiters () =
  (* A waiter parked in the queue would lose its reply: crashing then is
     a programming error, not a recovery scenario. *)
  let cl = make ~clients:2 in
  let eng = Cluster.engine cl in
  Cluster.spawn_client cl 0 ~name:"holder" (fun c ->
      let f = Client.open_file c ~create:true "/q" in
      (* 16 MiB of dirty data: the revocation-triggered flush takes tens
         of simulated milliseconds, keeping the waiter queued. *)
      Client.write ~mode:Seqdlm.Mode.PW c f ~off:0 ~len:(16 * Units.mib);
      Engine.sleep eng 10.);
  Cluster.spawn_client cl 1 ~name:"waiter" (fun c ->
      Engine.sleep eng 0.05;
      let f = Client.open_file c "/q" in
      Client.write ~mode:Seqdlm.Mode.PW c f ~off:0 ~len:(16 * Units.mib));
  (* Pause mid-protocol: holder cached its PW lock and is sleeping; the
     waiter's request is queued behind the revocation. *)
  Cluster.run ~until:0.06 cl;
  Alcotest.(check bool) "waiter is queued" true
    (Seqdlm.Lock_server.queue_length (Cluster.lock_server cl 0)
       (Layout.rid ~fid:1 ~stripe:0)
    > 0);
  (try
     Seqdlm.Lock_server.crash (Cluster.lock_server cl 0);
     Alcotest.fail "expected crash to refuse"
   with Invalid_argument _ -> ());
  (* Let the run finish cleanly. *)
  Cluster.run cl

(* Crash while flushed and still-dirty data coexist, end-to-end under
   the fuzzer's shadow-file oracle.  Tight dirty limits make the
   voluntary daemon flush part of phase 0 (populating the extent log)
   while the rest is still dirty in the client caches when the server
   dies; recovery rebuilds the extent cache from the log and restores
   the SN floor (Exec raises [recovery-sn-floor] if the rebuilt next_sn
   is not above every recovered SN), and the pre-crash-SN dirty data
   that flushes afterwards must still merge into exactly the bytes the
   shadow file predicts. *)
let test_crash_with_dirty_cache_flush () =
  let open Fuzz.Case in
  let open Fuzz.Segment in
  let case =
    {
      seed = 424242;
      params;
      kind =
        Sim
          {
            shape =
              {
                policy_idx = 0;
                n_servers = 1;
                n_clients = 2;
                stripes = 2;
                stripe_blocks = 4;
                dirty_min_blocks = 8;
                dirty_max_blocks = 32;
                extent_cache_limit = Config.default.extent_cache_limit;
                tie_random = false;
                jitter = 0.;
                loss = 0.;
                dup = 0.;
                repl = 0;
              };
            segments =
              [
                Phase
                  {
                    ops =
                      [|
                        [
                          Write { block = 0; blocks = 6 };
                          Write { block = 8; blocks = 6 };
                        ];
                        [ Write { block = 4; blocks = 6 } ];
                      |];
                    crash_server = Some 0;
                    crash_mid = None;
                  };
                Phase
                  {
                    ops =
                      [|
                        [ Write { block = 2; blocks = 4 } ];
                        [ Append { blocks = 2 } ];
                      |];
                    crash_server = None;
                    crash_mid = None;
                  };
              ];
          };
    }
  in
  let o = Fuzz.Exec.run case in
  Alcotest.(check string) "shadow file agrees byte-for-byte" "shadow" o.oracle;
  Alcotest.(check bool) "ops actually ran" true (o.ops > 0)

(* Queue contention, then recovery: a waiter sits in the lock-server
   queue behind a revocation mid-run; once the run drains, the server
   crashes and recovers, and the rebuilt SN counter must sit strictly
   above everything recovered — both the extent log's high-water mark
   and every grant the clients still cache. *)
let test_queued_waiters_then_recovery () =
  let cl = make ~clients:2 in
  let eng = Cluster.engine cl in
  Cluster.spawn_client cl 0 ~name:"holder" (fun c ->
      let f = Client.open_file c ~create:true "/qr" in
      Client.write ~mode:Seqdlm.Mode.PW c f ~off:0 ~len:(16 * Units.mib));
  Cluster.spawn_client cl 1 ~name:"waiter" (fun c ->
      Engine.sleep eng 0.05;
      let f = Client.open_file c "/qr" in
      Client.write ~mode:Seqdlm.Mode.PW c f ~off:0 ~len:(16 * Units.mib));
  let rid = Layout.rid ~fid:1 ~stripe:0 in
  let ls = Cluster.lock_server cl 0 in
  (* Pause mid-protocol to prove the queue really formed... *)
  Cluster.run ~until:0.06 cl;
  Alcotest.(check bool) "waiter queued mid-run" true
    (Seqdlm.Lock_server.queue_length ls rid > 0);
  (* ...then drain it and crash at quiescence. *)
  Cluster.run cl;
  Alcotest.(check int) "queue drained" 0
    (Seqdlm.Lock_server.queue_length ls rid);
  Cluster.crash_and_recover_server cl 0;
  let ds = Cluster.data_server cl 0 in
  let rids =
    List.sort_uniq compare
      (Seqdlm.Lock_server.resource_ids ls @ Data_server.stripe_rids ds)
  in
  Alcotest.(check bool) "some state recovered" true (rids <> []);
  List.iter
    (fun rid ->
      let next = Seqdlm.Lock_server.next_sn ls rid in
      let logged =
        Option.value (Data_server.max_logged_sn ds rid) ~default:0
      in
      let reinstalled =
        List.fold_left
          (fun m (v : Seqdlm.Types.lock) -> max m v.sn)
          0
          (Seqdlm.Lock_server.granted_locks ls rid)
      in
      Alcotest.(check bool)
        (Printf.sprintf "rid %d: next_sn %d above recovered max (log %d, \
                         grants %d)" rid next logged reinstalled)
        true
        (next > max logged reinstalled))
    rids;
  (* The waiter's dirty data (pre-crash SN) still lands correctly. *)
  Cluster.fsync_all cl;
  let file = ref None in
  Cluster.spawn_client cl 0 ~name:"open" (fun c ->
      file := Some (Client.open_file c "/qr"));
  Cluster.run cl;
  let contents = Cluster.stripe_contents cl (Option.get !file) ~stripe:0 in
  Alcotest.(check bool) "last writer owns every byte" true
    (Content.read contents (Interval.v ~lo:0 ~hi:(16 * Units.mib))
    |> List.for_all (fun (_, tag) ->
           match tag with
           | Some (t : Content.tag) -> t.Content.writer = 1
           | None -> false));
  Cluster.check_invariants cl

(* Recovery ownership with two lock servers: a file striped across both
   means every client caches grants for rids owned by each server.  When
   one server crashes, the gather must hand it back exactly the locks on
   rids it owns — the [~owned] predicate of
   [Lock_client.locks_for_recovery] — and the survivor's table and SN
   counter must come through untouched. *)
let test_multi_server_recovery_ownership () =
  let cl = Cluster.create ~params ~config ~n_servers:2 ~n_clients:2 () in
  let layout = Layout.v ~stripe_count:2 () in
  for i = 0 to 1 do
    Cluster.spawn_client cl i ~name:(Printf.sprintf "w%d" i) (fun c ->
        let f = Client.open_file c ~create:true ~layout "/multi" in
        (* One write per stripe, disjoint between clients, so both keep
           cached grants on both servers' resources. *)
        Client.write c f ~off:(i * 65536) ~len:8192;
        Client.write c f ~off:(Units.mib + (i * 65536)) ~len:8192;
        Client.fsync c)
  done;
  Cluster.run cl;
  let fid = 1 in
  let rid0 = Layout.rid ~fid ~stripe:0 in
  let rid1 = Layout.rid ~fid ~stripe:1 in
  let crashed = Cluster.server_of_rid cl rid0 in
  let survivor = Cluster.server_of_rid cl rid1 in
  Alcotest.(check bool) "stripes land on different servers" true
    (crashed <> survivor);
  let view_key (v : Seqdlm.Types.lock) =
    (v.client, v.sn, Seqdlm.Mode.to_string v.mode)
  in
  let table ls rid =
    List.sort compare (List.map view_key (Seqdlm.Lock_server.granted_locks ls rid))
  in
  let ls_crashed = Cluster.lock_server cl crashed in
  let ls_survivor = Cluster.lock_server cl survivor in
  let crashed_before = table ls_crashed rid0 in
  let survivor_before = table ls_survivor rid1 in
  let survivor_sn = Seqdlm.Lock_server.next_sn ls_survivor rid1 in
  (* Expansion may have let one client's grant swallow the stripe and a
     later conflicting write revoke the other's, so only demand that
     both servers still have grants to lose. *)
  Alcotest.(check bool) "crashed server has grants to regather" true
    (crashed_before <> []);
  Alcotest.(check bool) "survivor has grants to keep" true
    (survivor_before <> []);

  Cluster.crash_and_recover_server cl crashed;

  Alcotest.(check (list (triple int int string)))
    "crashed server regathered exactly its own grants" crashed_before
    (table ls_crashed rid0);
  List.iter
    (fun rid ->
      Alcotest.(check int)
        (Printf.sprintf "rebuilt rid %d owned by the crashed server" rid)
        crashed
        (Cluster.server_of_rid cl rid))
    (Seqdlm.Lock_server.resource_ids ls_crashed);
  Alcotest.(check (list (triple int int string)))
    "survivor's table untouched" survivor_before (table ls_survivor rid1);
  Alcotest.(check int) "survivor's SN counter untouched" survivor_sn
    (Seqdlm.Lock_server.next_sn ls_survivor rid1);
  Cluster.check_invariants cl

let suite =
  [
    ( "pfs.recovery",
      [
        Alcotest.test_case "lock table + extent cache round trip" `Quick
          test_recovery_round_trip;
        Alcotest.test_case "data safety across recovery" `Quick
          test_post_recovery_data_safety;
        Alcotest.test_case "requires extent log" `Quick
          test_recovery_requires_extent_log;
        Alcotest.test_case "crash refuses queued waiters" `Quick
          test_crash_refuses_queued_waiters;
        Alcotest.test_case "crash during dirty-cache flush (shadow oracle)"
          `Quick test_crash_with_dirty_cache_flush;
        Alcotest.test_case "queued waiters, then recovery restores SN floor"
          `Quick test_queued_waiters_then_recovery;
        Alcotest.test_case "multi-server recovery gathers only owned locks"
          `Quick test_multi_server_recovery_ownership;
      ] );
  ]
