(* Replicated lock-server state machine (lib/repl, DESIGN.md §16):
   grant-log semantics, replica epoch/ordering discipline, election,
   end-to-end shipping on a live cluster, replay-based failover, and the
   differential pin that replay- and gather-based recovery rebuild
   bit-identical lock tables from the same pre-crash history. *)

open Ccpfs_util
open Ccpfs
module Ls = Seqdlm.Lock_server
module Mode = Seqdlm.Mode

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
let iv ~off ~len = Interval.of_len ~lo:off ~len

let r_lock ?(state = Seqdlm.Lcm.Granted) ~rid ~id ~client ~mode ~off ~len
    ~sn () =
  Ls.R_lock
    { rid; lock_id = id; client; mode; ranges = Ranges.single (iv ~off ~len);
      sn; state }

(* ---------------------------------------------------------------- *)
(* Grant_log                                                         *)
(* ---------------------------------------------------------------- *)

let test_log_lsns () =
  let log = Repl.Grant_log.create () in
  Alcotest.(check int) "empty log" 0 (Repl.Grant_log.last_lsn log);
  let ev1 =
    r_lock ~rid:7 ~id:1 ~client:0 ~mode:Mode.PW ~off:0 ~len:4096 ~sn:1 ()
  in
  let ev2 = Ls.R_sn { e_rid = 7; e_next_sn = 2 } in
  Alcotest.(check int) "lsn 1" 1 (Repl.Grant_log.append log ev1);
  Alcotest.(check int) "lsn 2" 2 (Repl.Grant_log.append log ev2);
  Alcotest.(check int) "length" 2 (Repl.Grant_log.length log);
  (* Backup side: committing out of order is a programming error. *)
  let e1 = { Repl.Grant_log.lsn = 1; ev = ev1 }
  and e2 = { Repl.Grant_log.lsn = 2; ev = ev2 } in
  let backup = Repl.Grant_log.create () in
  Alcotest.check_raises "gap rejected"
    (Invalid_argument "Grant_log.append_entry: lsn 2, expected 1") (fun () ->
      Repl.Grant_log.append_entry backup e2);
  Repl.Grant_log.append_entry backup e1;
  Repl.Grant_log.append_entry backup e2;
  Alcotest.(check int) "prefix committed" 2 (Repl.Grant_log.last_lsn backup);
  Repl.Grant_log.reset log ~epoch:3;
  Alcotest.(check int) "reset truncates" 0 (Repl.Grant_log.last_lsn log);
  Alcotest.(check int) "reset moves regime" 3 (Repl.Grant_log.epoch log)

(* The log's array grows by doubling and a reset drops it: across
   several growths, a reset and a regrowth, every read must agree with
   a plain list of (lsn, event) pairs. *)
let test_log_growth_and_reset () =
  let log = Repl.Grant_log.create () in
  let ev i =
    if i mod 3 = 0 then Ls.R_sn { e_rid = i; e_next_sn = i + 1 }
    else
      r_lock ~rid:(i mod 5) ~id:i ~client:(i mod 4) ~mode:Mode.PW
        ~off:(i * 4096) ~len:4096 ~sn:i ()
  in
  let pairs es =
    List.map (fun (e : Repl.Grant_log.entry) -> (e.lsn, e.ev)) es
  in
  let check_against phase reference =
    let n = List.length reference in
    let expect = List.mapi (fun i ev -> (i + 1, ev)) reference in
    Alcotest.(check int) (phase ^ ": last lsn") n
      (Repl.Grant_log.last_lsn log);
    Alcotest.(check bool) (phase ^ ": entries") true
      (pairs (Repl.Grant_log.entries log) = expect);
    List.iter
      (fun lsn ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: events_from %d" phase lsn)
          true
          (Array.to_list (Repl.Grant_log.events_from log ~lsn)
          = List.filter_map
              (fun (l, ev) -> if l >= lsn then Some ev else None)
              expect))
      [ -1; 0; 1; 2; 16; 17; n / 2; n; n + 1; n + 7 ];
    Alcotest.(check int) (phase ^ ": bytes sum the entries")
      (List.fold_left
         (fun a ev -> a + Repl.Grant_log.event_bytes ev)
         0 reference)
      (Repl.Grant_log.bytes log)
  in
  let fill lo hi =
    List.init (hi - lo + 1) (fun k ->
        let e = ev (lo + k) in
        Alcotest.(check int) "append returns the next lsn" (k + 1)
          (Repl.Grant_log.append log e);
        e)
  in
  check_against "empty" [];
  let first = fill 1 150 in
  check_against "after four doublings" first;
  Alcotest.check_raises "gap rejected on a grown log"
    (Invalid_argument "Grant_log.append_entry: lsn 153, expected 151")
    (fun () ->
      Repl.Grant_log.append_entry log { lsn = 153; ev = ev 153 });
  Repl.Grant_log.reset log ~epoch:4;
  check_against "after reset" [];
  Alcotest.(check int) "reset moves regime" 4 (Repl.Grant_log.epoch log);
  let second = fill 1000 1040 in
  check_against "regrown" second;
  Repl.Grant_log.append_entry log { lsn = 42; ev = ev 42 };
  check_against "backup-side append" (second @ [ ev 42 ])

let test_log_materialize () =
  let log = Repl.Grant_log.create () in
  let push ev = ignore (Repl.Grant_log.append log ev) in
  (* r5: a write grant that later releases, another that survives. *)
  push (r_lock ~rid:5 ~id:1 ~client:0 ~mode:Mode.PW ~off:0 ~len:4096 ~sn:1 ());
  push (Ls.R_sn { e_rid = 5; e_next_sn = 2 });
  push (r_lock ~rid:5 ~id:2 ~client:1 ~mode:Mode.PW ~off:8192 ~len:4096 ~sn:2 ());
  push (Ls.R_sn { e_rid = 5; e_next_sn = 3 });
  push (Ls.R_drop { e_rid = 5; e_lock_id = 1 });
  (* r5 lock 2 downgrades in place: an upsert under the same id. *)
  push (r_lock ~rid:5 ~id:2 ~client:1 ~mode:Mode.PR ~off:8192 ~len:4096 ~sn:2 ());
  (* r9 exists then migrates away entirely. *)
  push (r_lock ~rid:9 ~id:1 ~client:0 ~mode:Mode.PR ~off:0 ~len:4096 ~sn:0 ());
  push (Ls.R_drop_resource { e_rid = 9 });
  match Repl.Grant_log.materialize (Repl.Grant_log.entries log) with
  | [ (5, r5) ] ->
      Alcotest.(check int) "exact sequencer position" 3 r5.Repl.Grant_log.sr_next_sn;
      (match r5.sr_locks with
      | [ l ] ->
          Alcotest.(check int) "surviving lock" 2 l.lock_id;
          Alcotest.(check string) "upserted mode" "PR"
            (Mode.to_string l.mode)
      | ls ->
          Alcotest.fail
            (Printf.sprintf "expected 1 surviving lock, got %d"
               (List.length ls)))
  | snap ->
      Alcotest.fail
        (Printf.sprintf "expected exactly r5 in the snapshot, got %d rids"
           (List.length snap))

(* ---------------------------------------------------------------- *)
(* Replica discipline (driven over real RPC)                         *)
(* ---------------------------------------------------------------- *)

(* One engine, one replica endpoint, a driver node: deliver Appends via
   plain RPC from a spawned process and inspect the committed log. *)
let with_replica f =
  let eng = Dessim.Engine.create () in
  let bnode = Netsim.Node.create eng params ~name:"b0" () in
  let src = Netsim.Node.create eng params ~name:"drv" () in
  let r = Repl.Replica.create eng params ~node:bnode ~name:"ls0.b0" ~id:0 in
  Dessim.Engine.spawn eng ~name:"driver" (fun () -> f r src);
  Dessim.Engine.run eng;
  r

(* Deliver one batch of consecutive entries from [first]; the reply is
   the backup's (committed, high-water). *)
let batch r src ~epoch ~first evs =
  match
    Netsim.Rpc.call (Repl.Replica.endpoint r) ~src
      (Repl.Replica.Append
         { a_epoch = epoch; a_first_lsn = first; a_evs = Array.of_list evs })
  with
  | Repl.Replica.Ack { r_committed; r_high; _ } -> (r_committed, r_high)
  | Repl.Replica.Log _ -> Alcotest.fail "Append answered with Log"

let append r src ~epoch ~lsn ev = batch r src ~epoch ~first:lsn [ ev ]

let log_events r =
  List.map
    (fun (e : Repl.Grant_log.entry) -> e.ev)
    (Repl.Grant_log.entries (Repl.Replica.log r))

let ev_seq i =
  r_lock ~rid:6 ~id:i ~client:(i mod 3) ~mode:Mode.PW ~off:(i * 4096)
    ~len:4096 ~sn:i ()

let evs lo hi = List.init (hi - lo + 1) (fun k -> ev_seq (lo + k))

let test_batch_in_order () =
  let r =
    with_replica (fun r src ->
        Alcotest.(check (pair int int)) "three entries commit" (3, 3)
          (batch r src ~epoch:0 ~first:1 (evs 1 3));
        Alcotest.(check (pair int int)) "the next batch extends them" (5, 5)
          (batch r src ~epoch:0 ~first:4 (evs 4 5)))
  in
  Alcotest.(check int) "one handler run (one ack) per batch" 2
    (Netsim.Rpc.calls (Repl.Replica.endpoint r));
  Alcotest.(check bool) "log holds the batches in order" true
    (log_events r = evs 1 5)

let test_batch_duplicate_and_overlap () =
  let r =
    with_replica (fun r src ->
        ignore (batch r src ~epoch:0 ~first:1 (evs 1 3));
        Alcotest.(check (pair int int)) "a retransmitted batch applies nothing"
          (3, 3)
          (batch r src ~epoch:0 ~first:1 (evs 1 3));
        Alcotest.(check (pair int int)) "a batch inside the prefix" (3, 3)
          (batch r src ~epoch:0 ~first:2 (evs 2 2));
        Alcotest.(check (pair int int))
          "a batch overlapping the prefix applies only its tail" (6, 6)
          (batch r src ~epoch:0 ~first:2 (evs 2 6)))
  in
  Alcotest.(check bool) "every entry applied exactly once" true
    (log_events r = evs 1 6)

let test_batch_out_of_order () =
  let r =
    with_replica (fun r src ->
        ignore (batch r src ~epoch:0 ~first:1 (evs 1 2));
        Alcotest.(check (pair int int)) "past a hole: buffered" (2, 7)
          (batch r src ~epoch:0 ~first:5 (evs 5 7));
        Alcotest.(check int) "high water shows the hole" 7
          (Repl.Replica.high_water r);
        Alcotest.(check (pair int int)) "the hole fills, the buffer drains"
          (8, 8)
          (batch r src ~epoch:0 ~first:3 (evs 3 8)))
  in
  Alcotest.(check bool) "contiguous log" true (log_events r = evs 1 8)

let test_batch_epochs () =
  let r =
    with_replica (fun r src ->
        ignore (batch r src ~epoch:2 ~first:1 (evs 1 2));
        Alcotest.(check (pair int int)) "a stale regime's batch: acked only"
          (2, 2)
          (batch r src ~epoch:1 ~first:3 (evs 3 5));
        Alcotest.(check int) "regime unchanged" 2 (Repl.Replica.epoch r);
        Alcotest.(check (pair int int)) "a newer regime resets the replica"
          (2, 2)
          (batch r src ~epoch:4 ~first:1 (evs 11 12)))
  in
  Alcotest.(check int) "final regime" 4 (Repl.Replica.epoch r);
  Alcotest.(check bool) "only the new regime's entries" true
    (log_events r = evs 11 12)

(* A group shipping to [backups] backups, driven by [f] from a process,
   run to quiescence.  A daemon probe counts each backup's live
   couriers every eighth of an RTT; returns the largest count seen and
   whether any was seen at all. *)
let with_group ?(fault = fun _ -> ()) ~backups f =
  let eng = Dessim.Engine.create () in
  Obs.Metrics.enable (Dessim.Engine.metrics eng);
  let src = Netsim.Node.create eng params ~name:"ls0" () in
  let rs =
    Array.init backups (fun j ->
        let name = Printf.sprintf "ls0.b%d" j in
        let node = Netsim.Node.create eng params ~name () in
        let r = Repl.Replica.create eng params ~node ~name ~id:j in
        fault (Repl.Replica.endpoint r);
        r)
  in
  let g =
    Repl.Group.create eng ~name:"ls0" ~src ~backups:rs
      ~reliability:(Netsim.Rpc.reliability_for params) ~salt:1 ()
  in
  let couriers_max = ref 0 and couriers_seen = ref false in
  (* The courier processes alive now, per backup (distinct pids: a
     waiter with a timeout also sits in the event queue). *)
  let couriers j =
    let name = Printf.sprintf "ls0.b%d.repl.send" j in
    Dessim.Engine.blocked_report eng
    |> List.filter (fun (b : Dessim.Engine.blocked_proc) -> b.b_name = name)
    |> List.map (fun (b : Dessim.Engine.blocked_proc) -> b.b_pid)
    |> List.sort_uniq Int.compare |> List.length
  in
  Dessim.Engine.spawn eng ~name:"driver" (fun () -> f eng g);
  Dessim.Engine.spawn eng ~daemon:true ~name:"probe" (fun () ->
      while true do
        Dessim.Engine.sleep eng (params.Netsim.Params.rtt /. 8.);
        for j = 0 to backups - 1 do
          let n = couriers j in
          couriers_max := max !couriers_max n;
          if n > 0 then couriers_seen := true
        done
      done);
  Dessim.Engine.run eng;
  (g, eng, !couriers_max, !couriers_seen)

let shipped eng =
  Obs.Metrics.counter_value
    (Obs.Metrics.counter (Dessim.Engine.metrics eng) "repl.shipped")

(* Reset the group while its first Append is on the wire: the orphan is
   acknowledged, and the next batch carries the new regime from lsn 1
   (one starting past lsn 1 would sit in the backup's buffer). *)
let test_group_reset_in_flight () =
  let g, eng, _, _ =
    with_group ~backups:1 (fun eng g ->
        List.iter (Repl.Group.append g) (evs 1 3);
        Dessim.Engine.sleep eng (params.Netsim.Params.rtt /. 4.);
        let b = (Repl.Group.backups g).(0) in
        Alcotest.(check int) "the first batch is still in flight" 0
          (Repl.Replica.committed b);
        Repl.Group.reset g ~epoch:1;
        List.iter (Repl.Group.append g) (evs 21 22))
  in
  let b = (Repl.Group.backups g).(0) in
  Alcotest.(check int) "two Appends: the orphan, then the new regime" 2
    (Netsim.Rpc.calls (Repl.Replica.endpoint b));
  Alcotest.(check int) "backup follows the new regime" 1 (Repl.Replica.epoch b);
  Alcotest.(check bool) "new regime from lsn 1" true
    (log_events b = evs 21 22);
  Alcotest.(check int) "no lag" 0 (Repl.Group.max_lag g);
  Alcotest.(check int) "shipped counts entries" 5 (shipped eng)

(* Append bursts, gaps and resets against backups whose endpoints lose
   and duplicate messages.  At quiescence each backup's log equals the
   primary's, entry for entry, and the lag is 0; at no probe does a
   backup have two couriers (two Appends) in flight. *)
let prop_group_ships_everything =
  let open QCheck in
  let step =
    Gen.(
      frequency
        [
          (6, map (fun n -> `Burst n) (int_range 1 4));
          (3, map (fun k -> `Gap k) (int_range 1 40));
          (1, return `Reset);
        ])
  in
  let print_step = function
    | `Burst n -> Printf.sprintf "burst %d" n
    | `Gap k -> Printf.sprintf "gap %d" k
    | `Reset -> "reset"
  in
  let case =
    Gen.(
      quad (int_range 1 2) (int_bound 1_000_000)
        (pair (float_bound_inclusive 0.3) (float_bound_inclusive 0.3))
        (list_size (int_range 1 30) step))
  in
  let print (backups, seed, (loss, dup), steps) =
    Printf.sprintf "backups=%d seed=%d loss=%.3f dup=%.3f [%s] then burst 1"
      backups
      seed loss dup
      (String.concat "; " (List.map print_step steps))
  in
  Test.make ~name:"group ships every entry, one Append in flight" ~count:60
    (make ~print case)
    (fun (backups, seed, (loss, dup), steps) ->
      let rng = Det_random.create ~seed in
      let fault ep =
        Netsim.Rpc.set_fault ep ~loss ~dup ~rng:(fun () ->
            Det_random.float rng 1.)
      in
      let next = ref 0 in
      let burst g n =
        for _ = 1 to n do
          incr next;
          Repl.Group.append g (ev_seq !next)
        done
      in
      let g, _, couriers_max, couriers_seen =
        with_group ~fault ~backups (fun eng g ->
            List.iter
              (function
                | `Burst n -> burst g n
                | `Gap k ->
                    Dessim.Engine.sleep eng
                      (float_of_int k *. params.Netsim.Params.rtt /. 4.)
                | `Reset ->
                    Repl.Group.reset g
                      ~epoch:(Repl.Grant_log.epoch (Repl.Group.log g) + 1))
              steps;
            burst g 1)
      in
      let plog = Repl.Group.log g in
      Array.iter
        (fun b ->
          let blog = Repl.Replica.log b in
          if Repl.Grant_log.epoch blog <> Repl.Grant_log.epoch plog then
            Test.fail_reportf "backup %d in regime %d, primary in %d"
              (Repl.Replica.id b) (Repl.Grant_log.epoch blog)
              (Repl.Grant_log.epoch plog);
          if Repl.Grant_log.entries blog <> Repl.Grant_log.entries plog then
            Test.fail_reportf "backup %d: %d entries, primary %d"
              (Repl.Replica.id b)
              (Repl.Grant_log.last_lsn blog)
              (Repl.Grant_log.last_lsn plog))
        (Repl.Group.backups g);
      if Repl.Group.max_lag g <> 0 then
        Test.fail_reportf "max_lag %d at quiescence" (Repl.Group.max_lag g);
      if not couriers_seen then Test.fail_report "the probe saw no courier";
      if couriers_max > 1 then
        Test.fail_reportf "%d Appends in flight to one backup" couriers_max;
      true)

let test_replica_reorders () =
  let ev i =
    r_lock ~rid:3 ~id:i ~client:0 ~mode:Mode.PR ~off:(i * 4096) ~len:4096
      ~sn:0 ()
  in
  let r =
    with_replica (fun r src ->
        (* Deliver 1 then 3 (a hole), then 2: commit must stay contiguous
           and the high-water mark must reveal the buffered entry. *)
        let c, h = append r src ~epoch:0 ~lsn:1 (ev 1) in
        Alcotest.(check (pair int int)) "lsn 1 lands" (1, 1) (c, h);
        let c, h = append r src ~epoch:0 ~lsn:3 (ev 3) in
        Alcotest.(check (pair int int)) "lsn 3 buffered as a known hole"
          (1, 3) (c, h);
        let c, h = append r src ~epoch:0 ~lsn:2 (ev 2) in
        Alcotest.(check (pair int int)) "hole filled, prefix drains" (3, 3)
          (c, h))
  in
  Alcotest.(check int) "committed" 3 (Repl.Replica.committed r)

let test_replica_epoch_discipline () =
  let ev = r_lock ~rid:1 ~id:1 ~client:0 ~mode:Mode.PW ~off:0 ~len:4096 ~sn:1 () in
  let r =
    with_replica (fun r src ->
        ignore (append r src ~epoch:2 ~lsn:1 ev);
        (* A stale regime's courier is acknowledged (so its retry loop
           terminates) but applies nothing. *)
        let c, _ = append r src ~epoch:1 ~lsn:2 ev in
        Alcotest.(check int) "older epoch discarded" 1 c;
        Alcotest.(check int) "regime unchanged" 2 (Repl.Replica.epoch r);
        (* A newer regime supersedes the copy wholesale. *)
        let c, _ = append r src ~epoch:5 ~lsn:1 ev in
        Alcotest.(check int) "new regime restarts from lsn 1" 1 c)
  in
  Alcotest.(check int) "final regime" 5 (Repl.Replica.epoch r);
  Alcotest.(check int) "final log" 1 (Repl.Replica.committed r)

(* The high-water mark is kept, not recomputed: it must still report a
   buffered hole, settle when the hole fills, and restart with a new
   regime even though a stale buffered lsn sat above the prefix. *)
let test_replica_high_water () =
  let ev i =
    r_lock ~rid:4 ~id:i ~client:0 ~mode:Mode.PR ~off:(i * 4096) ~len:4096
      ~sn:0 ()
  in
  let step r src ~epoch ~lsn label expect =
    Alcotest.(check (pair int int)) label expect
      (append r src ~epoch ~lsn (ev lsn));
    Alcotest.(check int) (label ^ ": high_water") (snd expect)
      (Repl.Replica.high_water r)
  in
  let r =
    with_replica (fun r src ->
        step r src ~epoch:0 ~lsn:1 "in order" (1, 1);
        step r src ~epoch:0 ~lsn:4 "hole behind lsn 4: high > committed" (1, 4);
        step r src ~epoch:0 ~lsn:2 "hole narrows" (2, 4);
        step r src ~epoch:0 ~lsn:3 "hole filled: equal" (4, 4);
        step r src ~epoch:0 ~lsn:7 "a second hole" (4, 7);
        step r src ~epoch:3 ~lsn:2 "new regime resets both" (0, 2);
        step r src ~epoch:3 ~lsn:1 "new regime drains" (2, 2))
  in
  Alcotest.(check int) "final regime" 3 (Repl.Replica.epoch r)

(* ---------------------------------------------------------------- *)
(* Live cluster: shipping, election, invariant sweep                 *)
(* ---------------------------------------------------------------- *)

let make ?(replication = 1) ~clients () =
  Cluster.create ~params ~config
    ~reliability:(Netsim.Rpc.reliability_for params)
    ~replication ~n_servers:1 ~n_clients:clients ()

let run_writes cl ~clients ~writes_each =
  for i = 0 to clients - 1 do
    Cluster.spawn_client cl i ~name:(Printf.sprintf "w%d" i) (fun c ->
        let f = Client.open_file c ~create:true "/repl" in
        for k = 1 to writes_each do
          let off = if k land 1 = 0 then 0 else (i + 1) * 65536 in
          Client.write ~mode:Seqdlm.Mode.PW c f ~off ~len:16384
        done)
  done;
  Cluster.run cl;
  Cluster.fsync_all cl

let test_shipping_drains () =
  let cl = make ~replication:2 ~clients:3 () in
  run_writes cl ~clients:3 ~writes_each:6;
  let g = Option.get (Cluster.repl_group cl 0) in
  Alcotest.(check int) "replication factor" 2 (Cluster.replication cl);
  Alcotest.(check bool) "transitions were logged" true
    (Repl.Grant_log.length (Repl.Group.log g) > 0);
  Alcotest.(check int) "every backup fully caught up" 0 (Repl.Group.max_lag g);
  (* The sweep the sanitizer runs: prefix + uniqueness. *)
  Check.Sanitize.check_cluster cl;
  Cluster.check_invariants cl

(* Plant a divergence the sweep must see: after a clean, caught-up run,
   the primary and its backup each commit a different event under the
   same next lsn.  The same event on both stays a clean prefix. *)
let test_log_prefix_catches_divergence () =
  let cl = make ~replication:1 ~clients:2 () in
  run_writes cl ~clients:2 ~writes_each:4;
  let g = Option.get (Cluster.repl_group cl 0) in
  let plog = Repl.Group.log g in
  let blog = Repl.Replica.log (Repl.Group.backups g).(0) in
  Check.Invariant.check_repl_group g;
  let same = Ls.R_sn { e_rid = 99; e_next_sn = 5 } in
  ignore (Repl.Grant_log.append plog same);
  ignore (Repl.Grant_log.append blog same);
  Check.Invariant.check_repl_group g;
  let at = Repl.Grant_log.append plog (Ls.R_sn { e_rid = 99; e_next_sn = 6 }) in
  ignore (Repl.Grant_log.append blog (Ls.R_sn { e_rid = 99; e_next_sn = 7 }));
  match Check.Invariant.check_repl_group g with
  | () -> Alcotest.fail "a diverged backup passed the log-prefix sweep"
  | exception Check.Violation.Violation v ->
      Alcotest.(check string) "invariant" "repl-log-prefix" v.inv;
      Alcotest.(check string) "names the lsn"
        (Printf.sprintf "ls0 backup 0 diverges from the primary at lsn %d" at)
        v.detail

let test_election_prefers_longest_then_lowest () =
  let cl = make ~replication:2 ~clients:2 () in
  run_writes cl ~clients:2 ~writes_each:4;
  let g = Option.get (Cluster.repl_group cl 0) in
  let eng = Cluster.engine cl in
  let view = Netsim.Rpc.View.create ~salt:99 () in
  let src = Cluster.server_node cl 0 in
  let got = ref None in
  Dessim.Engine.spawn eng ~name:"elector" (fun () ->
      got :=
        Repl.Election.elect g ~src ~view
          ~timeout:(4. *. params.Netsim.Params.rtt));
  Dessim.Engine.run eng;
  match !got with
  | Some o ->
      (* Both backups are caught up: the tie breaks to the lowest id. *)
      Alcotest.(check int) "lowest live id wins ties" 0
        o.Repl.Election.el_backup;
      Alcotest.(check int) "both answered" 2 o.el_live;
      Alcotest.(check int) "full log elected"
        (Repl.Grant_log.last_lsn (Repl.Group.log g))
        o.el_committed;
      Alcotest.(check int) "no re-probe needed" 1 o.el_rounds
  | None -> Alcotest.fail "no backup answered the probe"

(* ---------------------------------------------------------------- *)
(* Replay-based failover (online)                                    *)
(* ---------------------------------------------------------------- *)

let contended_run ?replication ?(crash_after = 6) ~clients ~writes_each () =
  let cl =
    match replication with
    | Some f -> make ~replication:f ~clients ()
    | None -> make ~replication:0 ~clients ()
  in
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

let test_replay_failover () =
  let clients = 4 and writes_each = 8 in
  let cl, ha, completed =
    contended_run ~replication:1 ~clients ~writes_each ()
  in
  Alcotest.(check int) "every write completed" (clients * writes_each)
    completed;
  (match Ha.Failover.records ha with
  | [ r ] -> (
      Alcotest.(check bool) "recovered after detection" true
        (r.f_recover > r.f_detect);
      match r.f_mode with
      | Ha.Failover.Replay { r_entries; r_log_bytes; r_rounds; r_backup } ->
          Alcotest.(check bool) "log entries replayed" true (r_entries > 0);
          Alcotest.(check bool) "fetch payload charged" true (r_log_bytes > 0);
          Alcotest.(check int) "single probe round" 1 r_rounds;
          Alcotest.(check int) "backup 0 elected" 0 r_backup;
          Alcotest.(check bool) "locks came back from the log" true
            (r.f_reinstalled > 0)
      | Ha.Failover.Gather ->
          Alcotest.fail "replicated recovery fell back to the gather")
  | rs ->
      Alcotest.fail
        (Printf.sprintf "expected exactly one failover, got %d"
           (List.length rs)));
  Check.Sanitize.check_cluster cl;
  Cluster.check_invariants cl

let test_replay_failover_is_deterministic () =
  ignore
    (Check.Determinism.check ~name:"repl.failover" (fun () ->
         let cl, _, _ =
           contended_run ~replication:1 ~clients:3 ~writes_each:6 ()
         in
         Cluster.engine cl))

(* ---------------------------------------------------------------- *)
(* Differential: replay ≡ gather on the same pre-crash history       *)
(* ---------------------------------------------------------------- *)

(* A canonical dump of one server's post-recovery lock state: granted
   locks (sorted by lock id within each resource), queue lengths and the
   sequencer position, per resource in ascending order.  Two recoveries
   agree iff their dumps are char-identical. *)
let dump_server srv =
  let buf = Buffer.create 256 in
  List.iter
    (fun rid ->
      let locks =
        List.sort
          (fun (a : Seqdlm.Types.lock) (b : Seqdlm.Types.lock) ->
            Int.compare a.lock_id b.lock_id)
          (Ls.granted_locks srv rid)
      in
      Buffer.add_string buf
        (Printf.sprintf "r%d next_sn=%d q=%d\n" rid (Ls.next_sn srv rid)
           (Ls.queue_length srv rid));
      List.iter
        (fun (v : Seqdlm.Types.lock) ->
          Buffer.add_string buf
            (Format.asprintf "  %a\n" Check.Invariant.pp_lock v))
        locks)
    (Ls.resource_ids srv);
  Buffer.contents buf

let test_replay_matches_gather () =
  let clients = 4 in
  let cl = make ~replication:1 ~clients () in
  run_writes cl ~clients ~writes_each:6;
  let srv = Cluster.lock_server cl 0 in
  let g = Option.get (Cluster.repl_group cl 0) in
  Alcotest.(check int) "quiesced: backups caught up" 0 (Repl.Group.max_lag g);
  (* Freeze the pre-crash history: the backup's committed log. *)
  let entries = Repl.Grant_log.entries (Repl.Replica.log (Repl.Group.backups g).(0)) in
  Alcotest.(check bool) "history recorded" true (entries <> []);
  (* Three sources describe the same granted locks before the crash: the
     server's table, the primary's materialized log and the clients'
     caches (the gather's input). *)
  let table = List.concat_map (Ls.granted_locks srv) (Ls.resource_ids srv) in
  let logged =
    List.concat_map
      (fun (_, r) -> r.Repl.Grant_log.sr_locks)
      (Repl.Grant_log.materialize (Repl.Grant_log.entries (Repl.Group.log g)))
  in
  (* Each client reports in (rid, lock id) order; the records' first two
     fields are rid and lock id, so [compare] merges them into it. *)
  let cached =
    List.concat
      (List.init clients (fun i ->
           Seqdlm.Lock_client.locks_for_recovery
             (Client.lock_client (Cluster.client cl i))
             ~owned:(fun _ -> true)))
    |> List.sort compare
  in
  Alcotest.(check bool) "locks held before the crash" true (table <> []);
  Alcotest.(check bool) "log lists the table" true (logged = table);
  Alcotest.(check bool) "client caches list the table" true (cached = table);
  (* Path A: the §IV-C2 client gather (offline flavour). *)
  Cluster.crash_and_recover_server cl 0;
  let gather_dump = dump_server srv in
  (* Path B: crash again and replay the frozen log instead. *)
  Ls.crash srv;
  Repl.Group.reset g ~epoch:(Shard_map.fence (Cluster.shard_map cl));
  let reinstalled =
    Cluster.replay_lock_server cl 0
      ~snapshot:(Repl.Grant_log.materialize entries)
  in
  let replay_dump = dump_server srv in
  Alcotest.(check bool) "locks were replayed" true (reinstalled > 0);
  Alcotest.(check string) "replay ≡ gather, bit for bit" gather_dump
    replay_dump;
  Cluster.check_invariants cl

let suite =
  [
    ( "repl.log",
      [
        Alcotest.test_case "growth and reset match a list reference" `Quick
          test_log_growth_and_reset;
        Alcotest.test_case "contiguous lsns, reset, backup commit" `Quick
          test_log_lsns;
        Alcotest.test_case "materialize folds upserts/drops/sn" `Quick
          test_log_materialize;
      ] );
    ( "repl.replica",
      [
        Alcotest.test_case "out-of-order appends commit contiguously" `Quick
          test_replica_reorders;
        Alcotest.test_case "epoch discipline: discard old, supersede new"
          `Quick test_replica_epoch_discipline;
        Alcotest.test_case "high water: hole, fill, new regime" `Quick
          test_replica_high_water;
        Alcotest.test_case "batch: in order, one ack" `Quick
          test_batch_in_order;
        Alcotest.test_case "batch: duplicate or overlap applies once" `Quick
          test_batch_duplicate_and_overlap;
        Alcotest.test_case "batch: out of order buffers, then drains" `Quick
          test_batch_out_of_order;
        Alcotest.test_case "batch: stale regime acked, newer resets" `Quick
          test_batch_epochs;
      ] );
    ( "repl.group",
      [
        Alcotest.test_case "reset with an Append in flight" `Quick
          test_group_reset_in_flight;
        QCheck_alcotest.to_alcotest ~rand:(Fuzz.Seed.rand_state ())
          prop_group_ships_everything;
      ] );
    ( "repl.cluster",
      [
        Alcotest.test_case "shipping drains to zero lag" `Quick
          test_shipping_drains;
        Alcotest.test_case "election: longest log, lowest id" `Quick
          test_election_prefers_longest_then_lowest;
        Alcotest.test_case "log-prefix sweep catches a divergence" `Quick
          test_log_prefix_catches_divergence;
      ] );
    ( "repl.failover",
      [
        Alcotest.test_case "replay-based online recovery" `Quick
          test_replay_failover;
        Alcotest.test_case "replay failover is deterministic" `Quick
          test_replay_failover_is_deterministic;
        Alcotest.test_case "replay ≡ gather on one history" `Quick
          test_replay_matches_gather;
      ] );
  ]
