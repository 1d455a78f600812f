(* Sharded lock namespace (DESIGN.md §15): shard-map routing and the
   stale-route fix, Stale_owner refresh-and-retry, epoch-fenced live
   migration, the shared §IV-C2 recovery core, the queue-driven
   rebalancer, and QCheck differentials against sharding-free
   references. *)

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
let page = Config.default.page

(* ---------------------------------------------------------------- *)
(* Shard_map unit behaviour                                          *)
(* ---------------------------------------------------------------- *)

let test_shard_map_unit () =
  let m = Shard_map.create ~n_servers:4 in
  Alcotest.(check int) "initial epoch" 0 (Shard_map.epoch m);
  Alcotest.(check int) "default lock owner" 3 (Shard_map.lock_owner m 7);
  Alcotest.(check int) "data owner" 3 (Shard_map.data_owner m 7);
  let e1 = Shard_map.migrate m ~rid:7 ~dst:1 in
  Alcotest.(check int) "migrate bumps epoch" 1 e1;
  Alcotest.(check int) "lock owner moved" 1 (Shard_map.lock_owner m 7);
  Alcotest.(check int) "data owner static" 3 (Shard_map.data_owner m 7);
  Alcotest.(check (list (pair int int))) "override recorded" [ (7, 1) ]
    (Shard_map.overrides m);
  let e2 = Shard_map.migrate m ~rid:7 ~dst:3 in
  Alcotest.(check int) "second epoch" 2 e2;
  Alcotest.(check (list (pair int int)))
    "migrating home removes the override" [] (Shard_map.overrides m);
  (* Client caches install snapshots forward-only. *)
  let c = Shard_map.Cache.create ~n_servers:4 in
  Alcotest.(check int) "cache default" 3 (Shard_map.Cache.owner c 7);
  let old_snap = Shard_map.snapshot m in
  ignore (Shard_map.migrate m ~rid:7 ~dst:2);
  Shard_map.Cache.install c (Shard_map.snapshot m);
  Alcotest.(check int) "cache follows install" 2 (Shard_map.Cache.owner c 7);
  Alcotest.(check int) "cache epoch" 3 (Shard_map.Cache.epoch c);
  Shard_map.Cache.install c old_snap;
  Alcotest.(check int) "stale install ignored" 2 (Shard_map.Cache.owner c 7);
  Alcotest.(check int) "epoch kept" 3 (Shard_map.Cache.epoch c)

(* ---------------------------------------------------------------- *)
(* Stale-route regression: a map change is observed by clients that   *)
(* were created (and had routed) before it                            *)
(* ---------------------------------------------------------------- *)

let test_stale_route_refresh () =
  let cl = Cluster.create ~params ~config ~n_servers:2 ~n_clients:2 () in
  let file = ref None in
  Cluster.spawn_client cl 0 ~name:"w0" (fun c ->
      let f = Client.open_file c ~create:true "/shard" in
      file := Some f;
      Client.write c f ~off:0 ~len:page);
  Cluster.run cl;
  Cluster.fsync_all cl;
  let f = Option.get !file in
  let rid = Layout.rid ~fid:(Client.fid f) ~stripe:0 in
  let src = Cluster.server_of_rid cl rid in
  let dst = 1 - src in
  let rec_ref = ref None in
  Engine.spawn (Cluster.engine cl) ~name:"mig" (fun () ->
      (* No-op move first: same destination must not change the map. *)
      Alcotest.(check bool) "src -> src is None" true
        (Option.is_none (Cluster.migrate_resource cl ~rid ~dst:src));
      rec_ref := Cluster.migrate_resource cl ~rid ~dst);
  Cluster.run cl;
  let r =
    match !rec_ref with
    | Some r -> r
    | None -> Alcotest.fail "migration did not commit"
  in
  Alcotest.(check int) "record src" src r.Cluster.m_from;
  Alcotest.(check int) "record dst" dst r.Cluster.m_to;
  Alcotest.(check bool) "the granted lock moved" true (r.Cluster.m_locks_moved >= 1);
  Alcotest.(check int) "authoritative route flipped" dst
    (Cluster.server_of_rid cl rid);
  Alcotest.(check bool) "lock table lives at dst" true
    (match Seqdlm.Lock_server.granted_locks (Cluster.lock_server cl dst) rid with
    | [] -> false
    | _ -> true);
  (* Client 1 still holds the pre-migration map: its conflicting write
     must bounce at the old owner, refresh, retry at the new owner, and
     revoke client 0's (transferred) grant. *)
  Cluster.spawn_client cl 1 ~name:"w1" (fun c ->
      let f1 = Client.open_file c "/shard" in
      Client.write c f1 ~off:0 ~len:page);
  Cluster.run cl;
  Cluster.fsync_all cl;
  Alcotest.(check bool) "client 1 was bounced" true
    (Seqdlm.Lock_client.stale_bounces
       (Client.lock_client (Cluster.client cl 1))
    >= 1);
  (* Client 1's write won (it revoked client 0's transferred lock). *)
  (match Content.read (Cluster.stripe_contents cl f ~stripe:0)
           (Interval.of_len ~lo:0 ~len:page)
   with
  | [ (_, Some tag) ] ->
      Alcotest.(check int) "writer 1 owns the page" 1 tag.Content.writer
  | segs ->
      Alcotest.fail
        (Printf.sprintf "unexpected segment count %d" (List.length segs)));
  Check.Sanitize.check_cluster cl;
  Check.Sanitize.check_ownership cl

(* ---------------------------------------------------------------- *)
(* Differential: offline and online recovery share one core           *)
(* ---------------------------------------------------------------- *)

let layout2 = Layout.v ~stripe_size:(8 * page) ~stripe_count:2 ()

(* Identical clusters, identical workloads: three clients interleave
   writes across two stripes, then one resource is migrated onto the
   server about to fail (so recovery must take the override path for
   its extent-log floor too). *)
let mk_loaded () =
  let reliability = Netsim.Rpc.reliability_for params in
  let cl =
    Cluster.create ~params ~config ~reliability ~n_servers:2 ~n_clients:3 ()
  in
  let file = ref None in
  for i = 0 to 2 do
    Cluster.spawn_client cl i ~name:(Printf.sprintf "w%d" i) (fun c ->
        let f = Client.open_file c ~create:true ~layout:layout2 "/diff" in
        if Option.is_none !file then file := Some f;
        for k = 0 to 5 do
          Client.write c f ~off:(((k * 3) + i) * page) ~len:page
        done)
  done;
  Cluster.run cl;
  Cluster.fsync_all cl;
  let f = Option.get !file in
  (* Rehome stripe 1's resource onto server 0, the server the tests
     crash: its post-recovery table must include the migrated-in
     resource, with the SN floor fetched from stripe 1's static home. *)
  let rid1 = Layout.rid ~fid:(Client.fid f) ~stripe:1 in
  if Cluster.server_of_rid cl rid1 <> 0 then begin
    Engine.spawn (Cluster.engine cl) ~name:"mig" (fun () ->
        ignore (Cluster.migrate_resource cl ~rid:rid1 ~dst:0));
    Cluster.run cl
  end;
  (cl, f)

(* Canonical rendering of one server's lock table and sequencers. *)
let server_state cl i =
  let ls = Cluster.lock_server cl i in
  let buf = Buffer.create 256 in
  List.iter
    (fun rid ->
      match Seqdlm.Lock_server.granted_locks ls rid with
      | [] -> ()
      | locks ->
          Buffer.add_string buf
            (Printf.sprintf "r%d sn%d:" rid (Seqdlm.Lock_server.next_sn ls rid));
          List.iter
            (fun (v : Seqdlm.Lock_server.lock_view) ->
              Buffer.add_string buf
                (Printf.sprintf " [%d c%d %s sn%d %s %s]" v.v_lock_id v.v_client
                   (Seqdlm.Mode.to_string v.v_mode)
                   v.v_sn
                   (Seqdlm.Lcm.state_to_string v.v_state)
                   (String.concat ","
                      (List.map
                         (fun (iv : Interval.t) ->
                           Printf.sprintf "%d-%d" iv.lo iv.hi)
                         v.v_ranges))))
            locks;
          Buffer.add_char buf '\n')
    (List.sort_uniq Int.compare (Seqdlm.Lock_server.resource_ids ls));
  Buffer.contents buf

let test_recovery_paths_agree () =
  (* Path A: the offline between-runs helper. *)
  let cl_a, f_a = mk_loaded () in
  Cluster.crash_and_recover_server cl_a 0;
  (* Path B: the online coordinator (detector -> STONITH -> gather by
     RPC -> reopen), which routes through the same recovery core. *)
  let cl_b, f_b = mk_loaded () in
  let ha = Ha.Failover.install cl_b in
  let eng = Cluster.engine cl_b in
  Engine.spawn eng ~name:"crash" (fun () ->
      ignore (Ha.Failover.crash ha 0);
      (* Keep a regular process alive until the coordinator has filed
         its record — the heartbeat machinery itself is all daemons. *)
      let tick = Ha.Detector.period (Ha.Failover.detector ha) in
      while Ha.Failover.records ha = [] do
        Engine.sleep eng tick
      done);
  Cluster.run cl_b;
  Ha.Failover.await_all_up ha;
  Alcotest.(check string) "identical post-recovery server state"
    (server_state cl_a 0) (server_state cl_b 0);
  (* And the recovered worlds keep serving identical data. *)
  List.iter
    (fun stripe ->
      Alcotest.(check bool)
        (Printf.sprintf "stripe %d contents agree" stripe)
        true
        (Content.equal
           (Cluster.stripe_contents cl_a f_a ~stripe)
           (Cluster.stripe_contents cl_b f_b ~stripe)))
    [ 0; 1 ];
  Check.Sanitize.check_cluster cl_a;
  Check.Sanitize.check_cluster cl_b

(* A crashed owner's table is empty until recovery gathers the clients'
   locks back.  Migrating it then would restart the sequencer on the
   target while clients still cache locks the empty table never saw, so
   the move must abort and leave the resource with its owner. *)
let test_no_migration_out_of_crashed_owner () =
  let cl, f = mk_loaded () in
  let rid0 = Layout.rid ~fid:(Client.fid f) ~stripe:0 in
  let owner = Cluster.server_of_rid cl rid0 in
  let dst = 1 - owner in
  let moved_before = List.length (Cluster.migrations cl) in
  let ha = Ha.Failover.install cl in
  let eng = Cluster.engine cl in
  let result = ref (Some ()) in
  Engine.spawn eng ~name:"crash-then-migrate" (fun () ->
      Alcotest.(check bool) "owner crashed" true (Ha.Failover.crash ha owner);
      result :=
        Option.map ignore (Cluster.migrate_resource cl ~rid:rid0 ~dst);
      let tick = Ha.Detector.period (Ha.Failover.detector ha) in
      while Ha.Failover.records ha = [] do
        Engine.sleep eng tick
      done);
  Cluster.run cl;
  Ha.Failover.await_all_up ha;
  Alcotest.(check bool) "migration aborted" true (Option.is_none !result);
  Alcotest.(check int) "owner unchanged" owner (Cluster.server_of_rid cl rid0);
  Alcotest.(check int) "no migration recorded" moved_before
    (List.length (Cluster.migrations cl));
  Check.Sanitize.check_cluster cl

(* ---------------------------------------------------------------- *)
(* Rebalancer: hot resource leaves the loaded server                  *)
(* ---------------------------------------------------------------- *)

let test_rebalancer_moves_hot_resource () =
  let cl = Cluster.create ~params ~config ~n_servers:2 ~n_clients:4 () in
  Obs.Metrics.enable (Engine.metrics (Cluster.engine cl));
  let file = ref None in
  (* All four clients hammer the same page of stripe 0: every request
     conflicts, so the owner's queue stays deep while the other server
     idles — exactly the imbalance the daemon is built to shave. *)
  for i = 0 to 3 do
    Cluster.spawn_client cl i ~name:(Printf.sprintf "hot%d" i) (fun c ->
        let f = Client.open_file c ~create:true ~layout:layout2 "/hot" in
        if Option.is_none !file then file := Some f;
        for _ = 1 to 12 do
          Client.write c f ~off:0 ~len:page
        done)
  done;
  let rb =
    Ha.Rebalancer.create ~period:(10. *. params.Netsim.Params.rtt) ~threshold:2
      cl
  in
  Ha.Rebalancer.start rb;
  Cluster.run cl;
  Cluster.fsync_all cl;
  Ha.Rebalancer.stop rb;
  Alcotest.(check bool) "the daemon migrated the hot resource" true
    (Ha.Rebalancer.moves rb >= 1);
  Alcotest.(check bool) "cluster records agree" true
    (List.length (Cluster.migrations cl) = Ha.Rebalancer.moves rb);
  (* The contended page still reflects exactly one winning writer. *)
  (match Content.read
           (Cluster.stripe_contents cl (Option.get !file) ~stripe:0)
           (Interval.of_len ~lo:0 ~len:page)
   with
  | [ (_, Some _) ] -> ()
  | _ -> Alcotest.fail "contended page not fully written");
  Check.Sanitize.check_cluster cl;
  Check.Sanitize.check_ownership cl

(* ---------------------------------------------------------------- *)
(* QCheck differential: static sharding == independent clusters       *)
(* ---------------------------------------------------------------- *)

(* Per-client ops confined to the client's own stripe, so the two
   resources never interact and a sharded 2-server world must behave
   exactly like per-client single-server worlds. *)
let gen_confined_ops rng ~stripe =
  let stripe_blocks = 8 in
  let n = 4 + Det_random.int rng 8 in
  List.init n (fun _ ->
      let blocks = 1 + Det_random.int rng 3 in
      let block = Det_random.int rng (stripe_blocks - blocks + 1) in
      let off = ((stripe * stripe_blocks) + block) * page in
      let len = blocks * page in
      if Det_random.int rng 4 = 0 then `Read (off, len) else `Write (off, len))

let run_confined cl ~client ~ops =
  let file = ref None in
  Cluster.spawn_client cl client ~name:(Printf.sprintf "cf%d" client) (fun c ->
      let f = Client.open_file c ~create:true ~layout:layout2 "/eq" in
      file := Some f;
      List.iter
        (function
          | `Write (off, len) -> Client.write c f ~off ~len
          | `Read (off, len) -> ignore (Client.read c f ~off ~len))
        ops);
  Cluster.run cl;
  Cluster.fsync_all cl;
  Option.get !file

let test_sharded_equals_independent =
  QCheck.Test.make ~name:"static sharding == independent single-server runs"
    ~count:12
    (QCheck.make QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Det_random.create ~seed in
      let ops = [| gen_confined_ops rng ~stripe:0; gen_confined_ops rng ~stripe:1 |] in
      (* Sharded world: both clients in one 2-server cluster. *)
      let cl = Cluster.create ~params ~config ~n_servers:2 ~n_clients:2 () in
      let f01 = ref None in
      for i = 0 to 1 do
        Cluster.spawn_client cl i ~name:(Printf.sprintf "cf%d" i) (fun c ->
            let f = Client.open_file c ~create:true ~layout:layout2 "/eq" in
            if Option.is_none !f01 then f01 := Some f;
            List.iter
              (function
                | `Write (off, len) -> Client.write c f ~off ~len
                | `Read (off, len) -> ignore (Client.read c f ~off ~len))
              ops.(i))
      done;
      Cluster.run cl;
      Cluster.fsync_all cl;
      Check.Sanitize.check_cluster cl;
      let f = Option.get !f01 in
      (* Reference worlds: a fresh single-server cluster per client
         (same client population, so writer tags align; the other
         client stays idle). *)
      List.for_all
        (fun i ->
          let ref_cl =
            Cluster.create ~params ~config ~n_servers:1 ~n_clients:2 ()
          in
          let rf = run_confined ref_cl ~client:i ~ops:ops.(i) in
          Check.Sanitize.check_cluster ref_cl;
          let same_contents =
            Content.equal
              (Cluster.stripe_contents cl f ~stripe:i)
              (Cluster.stripe_contents ref_cl rf ~stripe:i)
          in
          let rid = Layout.rid ~fid:(Client.fid f) ~stripe:i in
          let owner = Cluster.server_of_rid cl rid in
          let ref_owner = Cluster.server_of_rid ref_cl rid in
          let same_sn =
            Seqdlm.Lock_server.next_sn (Cluster.lock_server cl owner) rid
            = Seqdlm.Lock_server.next_sn
                (Cluster.lock_server ref_cl ref_owner)
                rid
          in
          if not (same_contents && same_sn) then
            QCheck.Test.fail_reportf
              "stripe %d diverged (contents %b, sn %b) for seed %d" i
              same_contents same_sn seed;
          true)
        [ 0; 1 ])

(* ---------------------------------------------------------------- *)
(* QCheck differential: migrations preserve single-writer semantics   *)
(* ---------------------------------------------------------------- *)

let gen_free_ops rng =
  let n = 8 + Det_random.int rng 12 in
  List.init n (fun _ ->
      match Det_random.int rng 8 with
      | 0 -> `Append (1 + Det_random.int rng 2)
      | 1 -> `Truncate (Det_random.int rng 16)
      | _ ->
          let blocks = 1 + Det_random.int rng 4 in
          let block = Det_random.int rng (16 - blocks + 1) in
          `Write (block, blocks))

let run_free cl ~ops ~migrations ~crash =
  let file = ref None in
  Cluster.spawn_client cl 0 ~name:"solo" (fun c ->
      let f = Client.open_file c ~create:true ~layout:layout2 "/mig" in
      file := Some f;
      List.iter
        (function
          | `Write (block, blocks) ->
              Client.write c f ~off:(block * page) ~len:(blocks * page)
          | `Append blocks -> ignore (Client.append c f ~len:(blocks * page))
          | `Truncate blocks -> Client.truncate c f ~size:(blocks * page))
        ops);
  List.iteri
    (fun mi (stripe, dst, after) ->
      Engine.spawn (Cluster.engine cl) ~name:(Printf.sprintf "mig%d" mi)
        (fun () ->
          Engine.sleep (Cluster.engine cl) after;
          match !file with
          | None -> ()
          | Some f ->
              let rid = Layout.rid ~fid:(Client.fid f) ~stripe in
              ignore (Cluster.migrate_resource cl ~rid ~dst)))
    migrations;
  Cluster.run cl;
  Cluster.fsync_all cl;
  if crash then begin
    Cluster.crash_and_recover_server cl 0;
    (* Post-recovery traffic must keep working on the recovered world. *)
    Cluster.spawn_client cl 0 ~name:"post" (fun c ->
        let f = Option.get !file in
        Client.write c f ~off:0 ~len:page);
    Cluster.run cl;
    Cluster.fsync_all cl
  end;
  Check.Sanitize.check_cluster cl;
  Check.Sanitize.check_ownership cl;
  Option.get !file

let test_migration_preserves_semantics =
  QCheck.Test.make
    ~name:"mid-run migration == no-migration reference (single writer)"
    ~count:12
    (QCheck.make QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Det_random.create ~seed in
      let ops = gen_free_ops rng in
      let n_mig = 1 + Det_random.int rng 3 in
      let migrations =
        List.init n_mig (fun _ ->
            let stripe = Det_random.int rng 2 in
            let dst = Det_random.int rng 2 in
            let after = Det_random.float rng (400. *. params.Netsim.Params.rtt) in
            (stripe, dst, after))
      in
      let crash = Det_random.bool rng in
      let cl_m = Cluster.create ~params ~config ~n_servers:2 ~n_clients:1 () in
      let f_m = run_free cl_m ~ops ~migrations ~crash in
      let cl_r = Cluster.create ~params ~config ~n_servers:2 ~n_clients:1 () in
      let f_r = run_free cl_r ~ops ~migrations:[] ~crash in
      List.iter
        (fun stripe ->
          if
            not
              (Content.equal
                 (Cluster.stripe_contents cl_m f_m ~stripe)
                 (Cluster.stripe_contents cl_r f_r ~stripe))
          then
            QCheck.Test.fail_reportf "stripe %d diverged for seed %d" stripe
              seed)
        [ 0; 1 ];
      true)

let suite =
  [
    ( "shard",
      [
        Alcotest.test_case "shard map + cache unit behaviour" `Quick
          test_shard_map_unit;
        Alcotest.test_case "stale route bounces, refreshes and retries" `Quick
          test_stale_route_refresh;
        Alcotest.test_case "offline and online recovery agree" `Quick
          test_recovery_paths_agree;
        Alcotest.test_case "no migration out of a crashed owner" `Quick
          test_no_migration_out_of_crashed_owner;
        Alcotest.test_case "rebalancer moves the hot resource" `Quick
          test_rebalancer_moves_hot_resource;
        QCheck_alcotest.to_alcotest ~rand:(Fuzz.Seed.rand_state ())
          test_sharded_equals_independent;
        QCheck_alcotest.to_alcotest ~rand:(Fuzz.Seed.rand_state ())
          test_migration_preserves_semantics;
      ] );
  ]
