open Ccpfs_util
open Dessim
open Netsim
open Ccpfs
module Lock_server = Seqdlm.Lock_server
module Lock_client = Seqdlm.Lock_client

type recovery_mode =
  | Gather
  | Replay of {
      r_backup : int;
      r_entries : int;
      r_log_bytes : int;
    }

type record = {
  f_server : int;
  f_epoch : int;
  f_crash : float;
  f_detect : float;
  f_recover : float;
  f_reinstalled : int;
  f_dropped_waiters : int;
  f_replayed_bytes : int;
  f_mode : recovery_mode;
}

type t = {
  cl : Cluster.t;
  eng : Engine.t;
  membership : Membership.t;
  detector : Detector.t;
  hb : (unit, unit) Rpc.endpoint array;
  repl_view : Rpc.View.t; (* election/fetch req-id space (DESIGN.md §16) *)
  crash_ts : float array;
  detect_ts : float array;
  dropped : int array;
  mutable records : record list; (* most recent first *)
  failovers : Obs.Metrics.counter;
  reinstalled : Obs.Metrics.counter;
}

let membership t = t.membership
let detector t = t.detector
let records t = List.rev t.records

(* ---------------------------------------------------------------- *)
(* Crash injection                                                   *)
(* ---------------------------------------------------------------- *)

(* Kill server [i] now: cut every service endpoint on its node (in-flight
   fenced requests to the old incarnation are dropped at delivery), lose
   the at-most-once tables, and wipe the lock table including queued
   waiters.  The extent caches are volatile too, but nobody can observe
   them while the I/O endpoint is down — recovery rebuilds them from the
   durable log.  Returns false (no-op) if the server is already down. *)
let crash t i =
  if
    Membership.state t.membership i <> Membership.Up
    || Rpc.is_down (Lock_server.lock_endpoint (Cluster.lock_server t.cl i))
  then false
  else begin
    let ls = Cluster.lock_server t.cl i in
    let ds = Cluster.data_server t.cl i in
    t.crash_ts.(i) <- Engine.now t.eng;
    let cut ep =
      Rpc.set_down ep true;
      Rpc.reset ep
    in
    Rpc.set_down (Lock_server.lock_endpoint ls) true;
    Rpc.reset (Lock_server.lock_endpoint ls);
    cut (Lock_server.ctl_endpoint ls);
    cut (Data_server.endpoint ds);
    cut t.hb.(i);
    t.dropped.(i) <- Lock_server.crash_online ls;
    true
  end

(* ---------------------------------------------------------------- *)
(* Recovery coordinator (§IV-C2, online)                             *)
(* ---------------------------------------------------------------- *)

(* Runs inside its own (regular) simulated process, spawned by the
   failure declaration.  Order matters:
   1. fence — bump the epoch while every endpoint is still down;
   2. replay the extent logs (the SN-floor source that survives even if
      no client caches a lock);
   3. gather cached locks from every client *by RPC*: each gather reply
      also bumps that client's epoch view, so a pre-crash grant still in
      flight towards it can never be installed afterwards;
   4. restore SN floors, re-validate, and only then reopen the endpoints
      under the new epoch. *)
let recover t i =
  let sink = Engine.trace_sink t.eng in
  let ls = Cluster.lock_server t.cl i in
  let ds = Cluster.data_server t.cl i in
  Membership.set_state t.membership i Membership.Recovering;
  let epoch = Membership.bump_epoch t.membership i in
  let span_args =
    [
      ("server", Obs.Json.Str (Membership.name t.membership i));
      ("epoch", Obs.Json.Int epoch);
    ]
  in
  if Obs.Trace.enabled sink then
    Obs.Trace.begin_span sink ~ts:(Engine.now t.eng)
      ~tid:(Engine.current_pid t.eng) ~cat:"ha" ~args:span_args "ha.recover";
  Data_server.crash_and_rebuild ds;
  (* Charge the device for re-reading the logs it just replayed. *)
  let replayed =
    List.fold_left
      (fun acc rid ->
        List.fold_left
          (fun acc (iv, _) -> acc + Interval.length iv)
          acc
          (Data_server.extent_cache_of ds rid))
      0 (Data_server.stripe_rids ds)
  in
  if replayed > 0 then
    Resource.consume (Node.disk (Data_server.node ds)) (float_of_int replayed);
  let srv_name = Node.name (Cluster.server_node t.cl i) in
  let ep_names =
    [
      Rpc.name (Lock_server.lock_endpoint ls);
      Rpc.name (Lock_server.ctl_endpoint ls);
      Rpc.name (Data_server.endpoint ds);
    ]
  in
  (* Replay path (DESIGN.md §16): with a replication group, elect the
     authoritative backup log and fetch it, instead of asking every
     client.  The probes and the fetch ride the fenced transport; the
     repl endpoints themselves were never cut (the backups live on
     their own nodes), so a live backup answers within an RTT. *)
  let src = Cluster.server_node t.cl i in
  let rtt = (Cluster.params t.cl).Params.rtt in
  let group = Cluster.repl_group t.cl i in
  let fetched =
    match group with
    | None -> None
    | Some g -> (
        let timeout = 4. *. rtt in
        match Repl.Election.elect g ~src ~view:t.repl_view ~timeout with
        | None -> None (* total replica loss: fall back to the gather *)
        | Some o -> (
            let b = (Repl.Group.backups g).(o.el_backup) in
            let ep = Repl.Replica.endpoint b in
            (* Response sizing peeks at the backup's log — the simulator
               shortcut for the length prefix a real fetch would read. *)
            let log_bytes = Repl.Grant_log.bytes (Repl.Replica.log b) in
            match
              Rpc.call_fenced ep ~src ~resp_bytes:log_bytes ~timeout
                ~epoch:(Rpc.View.epoch t.repl_view (Rpc.name ep))
                ~req_id:(Rpc.View.fresh_req_id t.repl_view)
                Repl.Replica.Fetch
            with
            | Rpc.Reply (Repl.Replica.Log { l_evs }, _) ->
                Some (o, l_evs, log_bytes)
            | Rpc.Reply (Repl.Replica.Ack _, _) | Rpc.Stale _ | Rpc.Timeout
              ->
                None))
  in
  (* Every replicated recovery opens a new log regime before a single
     lock is reinstalled — the gather fallback too: either way the
     reinstalls re-seed the backups from lsn 1.  The regime epoch is the
     shard-map fence (globally monotonic across migrations, fences and
     offline recoveries), so stragglers of the old regime are detectably
     stale everywhere at once. *)
  (match group with
  | Some g ->
      Repl.Group.reset g ~epoch:(Shard_map.fence (Cluster.shard_map t.cl))
  | None -> ());
  (* Clients filter their gathered grants through current lock
     ownership: treat the gather query as carrying the shard map. *)
  Cluster.refresh_client_maps t.cl;
  let mode, reinstalled =
    match fetched with
    | Some (o, evs, log_bytes) ->
        let snapshot = Repl.Grant_log.materialize evs in
        let n = Cluster.replay_lock_server t.cl i ~snapshot in
        ( Replay
            {
              r_backup = o.Repl.Election.el_backup;
              r_entries = Array.length evs;
              r_log_bytes = log_bytes;
            },
          n )
    | None ->
        let query =
          {
            Lock_client.rq_server = srv_name;
            rq_epoch = epoch;
            rq_endpoints = ep_names;
          }
        in
        (* The shared §IV-C2 core (Cluster.recover_lock_server)
           reinstalls the gathered grants and restores the SN floors —
           identical to the offline path, so the two recoveries cannot
           drift.  Gathering by RPC additionally bumps each client's
           epoch view (the handler fences the crashed endpoints), which
           the offline path does not need. *)
        ( Gather,
          Cluster.recover_lock_server t.cl i ~gather:(fun c ->
              Rpc.call
                (Lock_client.recovery_endpoint (Client.lock_client c))
                ~src query) )
  in
  (* Reopen under the new epoch: requests stamped with the old one are
     now answered Stale instead of being silently processed. *)
  Rpc.set_epoch (Lock_server.lock_endpoint ls) epoch;
  Rpc.set_epoch (Lock_server.ctl_endpoint ls) epoch;
  Rpc.set_epoch (Data_server.endpoint ds) epoch;
  Rpc.set_down (Lock_server.lock_endpoint ls) false;
  Rpc.set_down (Lock_server.ctl_endpoint ls) false;
  Rpc.set_down (Data_server.endpoint ds) false;
  Rpc.set_down t.hb.(i) false;
  Membership.renew_lease t.membership i;
  Membership.set_state t.membership i Membership.Up;
  Obs.Metrics.incr t.failovers;
  Obs.Metrics.add t.reinstalled reinstalled;
  t.records <-
    {
      f_server = i;
      f_epoch = epoch;
      f_crash = t.crash_ts.(i);
      f_detect = t.detect_ts.(i);
      f_recover = Engine.now t.eng;
      f_reinstalled = reinstalled;
      f_dropped_waiters = t.dropped.(i);
      f_replayed_bytes = replayed;
      f_mode = mode;
    }
    :: t.records;
  if Obs.Trace.enabled sink then
    Obs.Trace.end_span sink ~ts:(Engine.now t.eng)
      ~tid:(Engine.current_pid t.eng) "ha.recover"

let declare_failure t i =
  t.detect_ts.(i) <- Engine.now t.eng;
  (* STONITH: if the server is in fact still alive (a detector false
     positive under load), fence it for real before recovering —
     recovery must never run against a live lock table.  [crash] is a
     no-op when the server already died. *)
  ignore (crash t i);
  Membership.set_state t.membership i Membership.Down;
  Engine.spawn t.eng
    ~name:(Printf.sprintf "ha.recover.%d" i)
    (fun () -> recover t i)

(* ---------------------------------------------------------------- *)
(* Wiring                                                            *)
(* ---------------------------------------------------------------- *)

let install ?period ?hb_timeout ?(misses_allowed = 2) ?lease cl =
  (match Cluster.reliability cl with
  | None ->
      invalid_arg
        "Ha.Failover.install: cluster must be created with ~reliability \
         (clients could not survive an outage otherwise)"
  | Some _ -> ());
  let eng = Cluster.engine cl in
  let params = Cluster.params cl in
  let rtt = params.Params.rtt in
  let period = Option.value period ~default:(10. *. rtt) in
  let hb_timeout = Option.value hb_timeout ~default:(20. *. rtt) in
  let lease = Option.value lease ~default:(50. *. rtt) in
  let n = Cluster.n_servers cl in
  let names =
    Array.init n (fun i -> Node.name (Cluster.server_node cl i))
  in
  let membership = Membership.create eng ~lease ~names in
  let mon_node = Node.create eng params ~name:"ha.mon" () in
  let hb =
    Array.init n (fun i ->
        Rpc.endpoint eng params
          ~node:(Cluster.server_node cl i)
          ~name:(Printf.sprintf "ls%d.hb" i)
          ~handler:(fun () ~reply -> reply ()))
  in
  let metrics = Engine.metrics eng in
  let rec t =
    lazy
      {
        cl; eng; membership; hb;
        (* Salted past every client (0..n_clients-1) and every shipping
           group (n_clients..n_clients+n_servers-1). *)
        repl_view =
          Rpc.View.create ~salt:(Cluster.n_clients cl + n) ();
        detector =
          Detector.create eng ~node:mon_node ~membership ~hb ~period
            ~hb_timeout ~misses_allowed
            ~on_failure:(fun i -> declare_failure (Lazy.force t) i);
        crash_ts = Array.make n 0.;
        detect_ts = Array.make n 0.;
        dropped = Array.make n 0;
        records = [];
        failovers = Obs.Metrics.counter metrics "ha.failovers";
        reinstalled = Obs.Metrics.counter metrics "ha.reinstalled_locks";
      }
  in
  let t = Lazy.force t in
  Detector.start t.detector;
  t

(* Keep the engine alive until every server is back Up: spawned as a
   regular process so a quiescent [Engine.run] cannot return mid-outage.
   No-op when nothing is down. *)
let spawn_await_all_up t =
  if not (Membership.all_up t.membership) then
    Engine.spawn t.eng ~name:"ha.await" (fun () ->
        while not (Membership.all_up t.membership) do
          Engine.sleep t.eng (Detector.period t.detector)
        done)

let await_all_up t =
  spawn_await_all_up t;
  Engine.run t.eng
