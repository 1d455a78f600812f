open Dessim
open Netsim
module Lock_server = Seqdlm.Lock_server

type server = {
  s_node : Node.t;
  s_lock : Seqdlm.Lock_server.t;
  s_data : Data_server.t;
}

type migration_record = { m_from : int; m_to : int; m_locks_moved : int }

type t = {
  eng : Engine.t;
  params : Params.t;
  policy : Seqdlm.Policy.t;
  meta : Meta_server.t;
  shard : Shard_map.t;
  servers : server array;
  clients : Client.t array;
  caches : Shard_map.Cache.t array; (* one shard-map replica per client *)
  reliability : Rpc.reliability option;
  groups : Repl.Group.t array; (* per-server replication; empty when f=0 *)
  mutable migrations : migration_record list; (* newest first *)
}

let create ?(params = Params.default) ?(config = Config.default)
    ?(policy = Seqdlm.Policy.seqdlm) ?reliability ?replication ~n_servers
    ~n_clients () =
  if n_servers <= 0 || n_clients <= 0 then
    invalid_arg "Cluster.create: need at least one server and one client";
  let eng = Engine.create () in
  let meta_node = Node.create eng params ~name:"meta" () in
  let meta = Meta_server.create eng params ~node:meta_node in
  (* The authoritative lock-namespace routing table (DESIGN.md §15):
     every ownership answer — client routing, server-side ownership
     gates, data-server mSN routing, recovery filters — derives from
     this one map, so a migration is observed everywhere at once. *)
  let shard = Shard_map.create ~n_servers in
  (* The map service: clients refresh their cached replica from here
     when a server bounces a request with [Stale_owner]. *)
  let map_ep =
    Rpc.endpoint eng params ~node:meta_node ~name:"shard.map"
      ~handler:(fun () ~reply -> reply (Shard_map.snapshot shard))
  in
  let servers =
    Array.init n_servers (fun i ->
        let s_node =
          Node.create eng params ~name:(Printf.sprintf "ds%d" i) ~with_disk:true
            ()
        in
        let s_lock =
          Lock_server.create eng params ~node:s_node
            ~name:(Printf.sprintf "ls%d" i) ~policy
        in
        let s_data =
          Data_server.create eng params config ~node:s_node
            ~name:(Printf.sprintf "ds%d" i) ~lock_server:s_lock
        in
        { s_node; s_lock; s_data })
  in
  let lock_owner rid = Shard_map.lock_owner shard rid in
  Array.iteri
    (fun i s ->
      (* Ownership gate + ctl forwarding: requests for resources this
         server no longer owns bounce; control messages hop on to the
         current owner. *)
      Lock_server.set_sharding s.s_lock
        ~owned:(fun rid -> lock_owner rid = i)
        ~epoch:(fun () -> Shard_map.epoch shard)
        ~forward_ctl:(fun rid ->
          Some (Lock_server.ctl_endpoint servers.(lock_owner rid).s_lock));
      (* mSN queries and piggybacked ctl follow migrations too. *)
      Data_server.set_lock_route s.s_data (fun rid ->
          servers.(lock_owner rid).s_lock))
    servers;
  (* Data placement is static ({!Shard_map.data_owner}): stripes and
     their extent logs never move, only lock namespaces do. *)
  let io_route rid =
    Data_server.endpoint servers.(Shard_map.data_owner shard rid).s_data
  in
  let caches =
    Array.init n_clients (fun _ -> Shard_map.Cache.create ~n_servers)
  in
  let clients =
    Array.init n_clients (fun i ->
        let node = Node.create eng params ~name:(Printf.sprintf "c%d" i) () in
        let lock_route rid =
          servers.(Shard_map.Cache.owner caches.(i) rid).s_lock
        in
        let c =
          Client.create eng params config ~node ~client_id:i
            ~meta:(Meta_server.endpoint meta) ~lock_route ~io_route ~policy
            ~reliability
        in
        Seqdlm.Lock_client.set_map_refresh (Client.lock_client c)
          (fun ~min_epoch ->
            if Shard_map.Cache.epoch caches.(i) < min_epoch then
              Shard_map.Cache.install caches.(i)
                (Rpc.call map_ep ~src:node ()));
        c)
  in
  (* Grant-log replication (DESIGN.md §16): [f] diskless backup replicas
     per lock server, each on its own node, and a shipping group
     installed as the server's replication hook.  View salts partition
     the request-id space: clients take [0, n_clients); the groups take
     [n_clients, n_clients + n_servers), so shipping couriers can never
     collide with client retries in a dedup table. *)
  let repl_f =
    match replication with Some f -> f | None -> config.Config.replication
  in
  if repl_f < 0 then invalid_arg "Cluster.create: replication < 0";
  let groups =
    if repl_f = 0 then [||]
    else
      Array.init n_servers (fun i ->
          let backups =
            Array.init repl_f (fun j ->
                let name = Printf.sprintf "ls%d.b%d" i j in
                let node = Node.create eng params ~name () in
                Repl.Replica.create eng params ~node ~name ~id:j)
          in
          let g =
            Repl.Group.create eng
              ~name:(Printf.sprintf "ls%d" i)
              ~src:servers.(i).s_node ~backups ?reliability
              ~salt:(n_clients + i) ()
          in
          Repl.Group.attach g servers.(i).s_lock;
          g)
  in
  {
    eng; params; policy; meta; shard; servers; clients;
    caches; reliability; groups; migrations = [];
  }

let engine t = t.eng
let params t = t.params
let policy t = t.policy
let n_clients t = Array.length t.clients
let n_servers t = Array.length t.servers
let client t i = t.clients.(i)
let server_of_rid t rid = Shard_map.lock_owner t.shard rid
let shard_map t = t.shard
let data_server t i = t.servers.(i).s_data
let lock_server t i = t.servers.(i).s_lock
let server_node t i = t.servers.(i).s_node
let meta t = t.meta
let reliability t = t.reliability

let repl_group t i =
  if Array.length t.groups = 0 then None else Some t.groups.(i)

let replication t =
  if Array.length t.groups = 0 then 0 else Repl.Group.f t.groups.(0)

let total_retries t =
  Array.fold_left
    (fun acc c -> acc + Seqdlm.Lock_client.retries (Client.lock_client c))
    0 t.clients

let total_stale_bounces t =
  Array.fold_left
    (fun acc c ->
      acc + Seqdlm.Lock_client.stale_bounces (Client.lock_client c))
    0 t.clients

let spawn_client t i ~name f =
  Engine.spawn t.eng ~name (fun () -> f t.clients.(i))

let run ?until t = Engine.run ?until t.eng
let now t = Engine.now t.eng

let fsync_all t =
  Array.iteri
    (fun i c ->
      Engine.spawn t.eng ~name:(Printf.sprintf "fsync%d" i) (fun () ->
          Client.fsync c))
    t.clients;
  Engine.run t.eng

let refresh_client_maps t =
  let snap = Shard_map.snapshot t.shard in
  Array.iter (fun cache -> Shard_map.Cache.install cache snap) t.caches

(* The extent-log floor sweep both recovery flavours share.  Floor
   candidates: every stripe homed here, plus every resource migrated
   here from another home. *)
let restore_extent_floors t i =
  let s = t.servers.(i) in
  let owned rid = Shard_map.lock_owner t.shard rid = i in
  let candidates =
    List.sort_uniq Int.compare
      (Data_server.stripe_rids s.s_data
      @ List.filter_map
          (fun (rid, owner) -> if owner = i then Some rid else None)
          (Shard_map.overrides t.shard))
  in
  List.iter
    (fun rid ->
      if owned rid then
        let home = t.servers.(Shard_map.data_owner t.shard rid).s_data in
        match Data_server.max_logged_sn home rid with
        | Some sn -> Lock_server.restore_sn_floor s.s_lock rid sn
        | None -> ())
    candidates

(* The §IV-C2 recovery core, shared by the offline path below, the
   online coordinator ({!Ha.Failover}) and the replay twin, so floor
   handling cannot drift between them: reinstall every client's
   gathered grants for the resources server [i] owns, restore the SN
   floors from the durable extent logs, and self-check.  Ownership is filtered against the
   authoritative shard map — a client gathering through a stale cached
   map may over-report, and a lock must never be installed on a
   non-owner.  Floors consult the {e data} owner of each candidate
   resource: after a migration the extent log lives on the static home
   server, not necessarily on the recovering lock server's node. *)
let recover_lock_server t i ~gather =
  let s = t.servers.(i) in
  let owned rid = Shard_map.lock_owner t.shard rid = i in
  let reinstalled = ref 0 in
  Array.iter
    (fun c ->
      let locks =
        List.filter (fun (l : Seqdlm.Types.lock) -> owned l.rid) (gather c)
      in
      reinstalled := !reinstalled + List.length locks;
      Lock_server.reinstall s.s_lock locks)
    t.clients;
  restore_extent_floors t i;
  Lock_server.check_invariants s.s_lock;
  !reinstalled

(* The replay twin of {!recover_lock_server} (DESIGN.md §16): the same
   gather core, fed from an elected backup's materialized grant log
   instead of the clients' caches.  Each client "reports" its locks in
   the snapshot, which lists them in ascending (rid, lock id) — the
   order a real gather reports them — so the reinstalls (and the events
   they emit) match the gather path's exactly.  The log's recorded
   [R_sn] positions then join the extent-log floors, so the two paths
   produce bit-identical post-recovery tables on the same history (the
   differential test in test_repl pins this). *)
let replay_lock_server t i ~(snapshot : Repl.Grant_log.snapshot) =
  let locks =
    List.concat_map (fun (_, r) -> r.Repl.Grant_log.sr_locks) snapshot
  in
  let reinstalled =
    recover_lock_server t i ~gather:(fun c ->
        let cid = Seqdlm.Lock_client.client_id (Client.lock_client c) in
        List.filter (fun (l : Seqdlm.Types.lock) -> l.client = cid) locks)
  in
  (* The log's exact pre-crash sequencer positions.  With the extent log
     on these coincide with the extent-log floors (every retired write
     SN is durably logged); without it they are the only floor source. *)
  List.iter
    (fun (rid, (r : Repl.Grant_log.snap_resource)) ->
      if Shard_map.lock_owner t.shard rid = i && r.sr_next_sn > 1 then
        Lock_server.restore_sn_floor t.servers.(i).s_lock rid
          (r.sr_next_sn - 1))
    snapshot;
  reinstalled

let crash_and_recover_server t i =
  let s = t.servers.(i) in
  let owned rid = server_of_rid t rid = i in
  (* (2) first: the extent-log replay also tells us the SN floor. *)
  Data_server.crash_and_rebuild s.s_data;
  (* (1) lose and regather the lock table; (3) replay the SN floors. *)
  Lock_server.crash s.s_lock;
  (* With replication on, open a new log regime before reinstalling:
     the reinstall emissions re-seed the backups from lsn 1 under the
     fenced epoch, superseding their pre-crash copies wholesale. *)
  (match repl_group t i with
  | Some g -> Repl.Group.reset g ~epoch:(Shard_map.fence t.shard)
  | None -> ());
  ignore
    (recover_lock_server t i ~gather:(fun c ->
         Seqdlm.Lock_client.locks_for_recovery (Client.lock_client c) ~owned))

(* ------------------------------------------------------------------ *)
(* Epoch-fenced resource migration (DESIGN.md §15)                     *)
(* ------------------------------------------------------------------ *)

(* Rehome one resource's lock namespace onto [dst], under live traffic:

     freeze intake -> drain (in-flight grants/acks complete while new
     arrivals park) -> flip the authoritative map (epoch bump) ->
     extract the lock table, bouncing parked + queued waiters with the
     new epoch -> adopt on [dst] with the sequencer position and the
     extent-log SN floor -> reopen.

   The flip/extract/adopt steps run in one simulated event, so there is
   no observable instant at which two servers own the resource, or none
   does.  Returns [None] without effect (beyond the drain delay) when
   the resource is already on [dst], either owner's lock endpoint is
   down, or a colocated force-sync pins it.
   Must run inside an engine process (it sleeps the drain window). *)
let migrate_resource t ~rid ~dst =
  let n = Array.length t.servers in
  if dst < 0 || dst >= n then
    invalid_arg (Printf.sprintf "Cluster.migrate_resource: server %d" dst);
  let src = Shard_map.lock_owner t.shard rid in
  if src = dst then None
  else begin
    let s_src = t.servers.(src).s_lock and s_dst = t.servers.(dst).s_lock in
    Lock_server.freeze s_src rid;
    (* The drain window: two control RTTs stand in for the
       prepare/transfer exchange between the owners. *)
    Engine.sleep t.eng (2. *. t.params.Params.rtt);
    if not (Lock_server.is_frozen s_src rid) then
      (* The source crashed during the drain window (crash_online clears
         every freeze): nothing to move, the recovery path owns it. *)
      None
    else if
      Rpc.is_down (Lock_server.lock_endpoint s_src)
      || Rpc.is_down (Lock_server.lock_endpoint s_dst)
      || not (Lock_server.can_migrate s_src rid)
    then begin
      (* Source down (crashed before the freeze: its table is empty
         until recovery gathers the clients' locks back, so moving it
         would hand out SNs and modes that collide with locks clients
         still cache), target down (adopting into a crashed table would
         collide with its recovery reinstalls), or a colocated
         force-sync pins the resource here.  Replay the parked intake
         locally. *)
      Lock_server.cancel_freeze s_src rid;
      None
    end
    else begin
      let epoch = Shard_map.migrate t.shard ~rid ~dst in
      let st =
        match Lock_server.migrate_out s_src rid ~epoch with
        | Some st -> st
        | None -> assert false (* can_migrate checked in this same event *)
      in
      Lock_server.adopt s_dst st;
      (* SN floor from the resource's static data home: everything ever
         durably written must stay below future SNs, even what the old
         owner's table no longer remembers. *)
      let home = t.servers.(Shard_map.data_owner t.shard rid).s_data in
      (match Data_server.max_logged_sn home rid with
      | Some sn -> Lock_server.restore_sn_floor s_dst rid sn
      | None -> ());
      Lock_server.check_invariants s_dst;
      let r =
        {
          m_from = src;
          m_to = dst;
          m_locks_moved = List.length st.Lock_server.mig_locks;
        }
      in
      t.migrations <- r :: t.migrations;
      Some r
    end
  end

let migrations t = List.rev t.migrations

let total_locking_seconds t =
  Array.fold_left
    (fun acc c -> acc +. Seqdlm.Lock_client.locking_seconds (Client.lock_client c))
    0. t.clients

let total_cache_seconds t =
  Array.fold_left
    (fun acc c -> acc +. Client_cache.cache_write_seconds (Client.cache c))
    0. t.clients

let total_bytes_written t =
  Array.fold_left (fun acc c -> acc + Client.bytes_written c) 0 t.clients

let sum_lock_stats t =
  let acc : Seqdlm.Lock_server.stats =
    {
      grants = 0; early_grants = 0; early_revocations = 0; revokes_sent = 0;
      upgrades = 0; downgrades = 0; releases = 0; expansions = 0;
      revocation_wait = 0.; release_wait = 0.; max_queue = 0;
    }
  in
  Array.iter
    (fun s ->
      let st = Seqdlm.Lock_server.stats s.s_lock in
      acc.grants <- acc.grants + st.grants;
      acc.early_grants <- acc.early_grants + st.early_grants;
      acc.early_revocations <- acc.early_revocations + st.early_revocations;
      acc.revokes_sent <- acc.revokes_sent + st.revokes_sent;
      acc.upgrades <- acc.upgrades + st.upgrades;
      acc.downgrades <- acc.downgrades + st.downgrades;
      acc.releases <- acc.releases + st.releases;
      acc.expansions <- acc.expansions + st.expansions;
      acc.revocation_wait <- acc.revocation_wait +. st.revocation_wait;
      acc.release_wait <- acc.release_wait +. st.release_wait;
      acc.max_queue <- max acc.max_queue st.max_queue)
    t.servers;
  acc

let total_disk_bytes t =
  Array.fold_left
    (fun acc s -> acc + Node.disk_bytes_written s.s_node)
    0 t.servers

let check_invariants t =
  Array.iter (fun s -> Seqdlm.Lock_server.check_invariants s.s_lock) t.servers

let stripe_contents t file ~stripe =
  let rid = Layout.rid ~fid:(Client.fid file) ~stripe in
  Data_server.contents t.servers.(Shard_map.data_owner t.shard rid).s_data rid
