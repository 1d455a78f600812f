(** Assembly of a whole simulated ccPFS deployment: a metadata node, data
    servers (each running an IO service and the DLM service for its
    stripes), and clients.

    Data placement is static — stripe [rid] is stored on server
    [rid mod n_servers] (§IV) and never moves.  The {e lock} namespace is
    dynamic: ownership is read from an epoch-versioned {!Shard_map}
    (DESIGN.md §15) on every route decision, and single resources can be
    rehomed between live servers with {!migrate_resource}.  Clients hold
    cached map replicas refreshed through a meta-node map service when a
    server bounces them with [Stale_owner]. *)

type t

val create :
  ?params:Netsim.Params.t -> ?config:Config.t ->
  ?policy:Seqdlm.Policy.t -> ?reliability:Netsim.Rpc.reliability ->
  ?replication:int ->
  n_servers:int -> n_clients:int -> unit ->
  t
(** Defaults: testbed {!Netsim.Params.default}, {!Config.default},
    {!Seqdlm.Policy.seqdlm}.  With [reliability], every client's lock
    acquires, control messages and data-server I/O go through the fenced
    retry transport ({!Netsim.Rpc.call_reliable}) — required for online
    failover ({!Ha}); without it the transport behaves exactly as
    before.  [replication] (default {!Config.t.replication}, i.e. the
    [CCPFS_REPL] environment knob) gives every lock server that many
    diskless backup replicas and a grant-log shipping group
    (DESIGN.md §16), enabling the replay-based recovery path. *)

val engine : t -> Dessim.Engine.t
val params : t -> Netsim.Params.t
val policy : t -> Seqdlm.Policy.t
val n_clients : t -> int
val n_servers : t -> int
val client : t -> int -> Client.t

val server_of_rid : t -> int -> int
(** Current lock owner of a resource, read from the authoritative shard
    map — the single source of truth also backing every client's route
    and every server's ownership gate. *)

val shard_map : t -> Shard_map.t
val data_server : t -> int -> Data_server.t
val lock_server : t -> int -> Seqdlm.Lock_server.t
val server_node : t -> int -> Netsim.Node.t
val meta : t -> Meta_server.t
val reliability : t -> Netsim.Rpc.reliability option

val repl_group : t -> int -> Repl.Group.t option
(** Server [i]'s replication group, [None] when the cluster runs
    unreplicated (DESIGN.md §16). *)

val replication : t -> int
(** The grant-log replication factor the cluster was built with (0 =
    unreplicated). *)

val total_retries : t -> int
(** Fenced-call retransmissions summed over all clients. *)

val total_stale_bounces : t -> int
(** [Stale_owner] bounces summed over all clients. *)

val spawn_client : t -> int -> name:string -> (Client.t -> unit) -> unit
(** Spawn a process running on client [i]. *)

val run : ?until:float -> t -> unit
val now : t -> float

val fsync_all : t -> unit
(** Run a process per client flushing all dirty data, and wait for
    completion (the explicit flush phase whose duration is the "F time"
    of the evaluation figures). *)

val refresh_client_maps : t -> unit
(** Install the current shard-map snapshot into every client's cached
    replica.  Recovery coordinators call this before gathering so
    clients filter their cached grants through up-to-date ownership
    (the query is treated as carrying the map). *)

val recover_lock_server :
  t -> int -> gather:(Client.t -> Seqdlm.Types.lock list) -> int
(** The §IV-C2 recovery core shared by {!crash_and_recover_server}, the
    online coordinator ({!Ha.Failover}) and {!replay_lock_server}:
    client by client in index order, reinstall the locks [gather]
    reports for the resources server [i] owns (filtered against the
    authoritative map), then restore SN floors from the extent logs of
    each resource's {e data} home, and run the server self-check.
    Returns the number of locks reinstalled. *)

val replay_lock_server :
  t -> int -> snapshot:Repl.Grant_log.snapshot -> int
(** The replay twin of {!recover_lock_server} (DESIGN.md §16): the same
    core, with each client's locks taken from an elected backup's
    materialized grant log instead of its cache, then the log's recorded
    sequencer positions applied as SN floors — so gather and replay
    produce bit-identical post-recovery state, and emit the same events,
    on the same history.  Returns the number of locks reinstalled. *)

val crash_and_recover_server : t -> int -> unit
(** Fail server [i] between runs and run the §IV-C2 recovery protocol:
    (1) the lock server rebuilds its lock table by gathering the grants
    every client still caches for the stripes this server owns;
    (2) the data server replays its extent logs to rebuild the extent
    caches (the device contents survive);
    (3) sequence-number floors are restored from both sources, so SNs
    issued after recovery stay above everything ever written.
    Requires {!Config.t.extent_log}. *)

(** {1 Resource migration (DESIGN.md §15)} *)

type migration_record = { m_from : int; m_to : int; m_locks_moved : int }

val migrate_resource : t -> rid:int -> dst:int -> migration_record option
(** Epoch-fenced rehoming of one resource's lock namespace onto [dst],
    safe under live traffic: freeze intake, drain in-flight activity for
    a two-RTT window, then atomically flip the map, extract the lock
    table (bouncing queued and parked waiters with the new epoch), adopt
    on [dst] and restore the extent-log SN floor from the resource's
    static data home.  [None] (no map change) when the resource already
    lives on [dst], a colocated force-sync pins it, the source is down
    or crashed during the drain window, or [dst] is down.  Must be called from
    within an engine process. *)

val migrations : t -> migration_record list
(** Completed migrations, oldest first. *)

(** {1 Aggregated metrics} *)

val total_locking_seconds : t -> float
val total_cache_seconds : t -> float
val total_bytes_written : t -> int
val sum_lock_stats : t -> Seqdlm.Lock_server.stats
val total_disk_bytes : t -> int
val check_invariants : t -> unit

val stripe_contents : t -> Client.file -> stripe:int -> Ccpfs_util.Content.t
(** Device contents of one stripe of a file (for end-to-end checks). *)
