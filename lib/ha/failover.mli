(** Live lock-server failover under traffic (SeqDLM §IV-C2, online).

    [install] wires a heartbeat {!Detector} and an epoch/lease
    {!Membership} table onto a running {!Ccpfs.Cluster}.  [crash] kills a
    lock/data server pair mid-run: its endpoints go down (in-flight
    requests to the old incarnation are dropped), its at-most-once dedup
    state and lock table are lost, and clients' fenced RPCs start timing
    out and retrying.  The detector notices, fences the server behind a
    bumped epoch, and the recovery coordinator rebuilds the lock table
    online: extent logs are replayed for the SN floor, every live client
    is asked (by RPC) for the cached locks it holds on the dead server —
    the gather reply doubles as the client's epoch-view bump, so a
    pre-crash grant still in flight can never be installed afterwards —
    and only then do the endpoints reopen under the new epoch.  Clients
    that were mid-request simply see one more timeout and their next
    retry succeeds.

    On a cluster built with replication (DESIGN.md §16) the coordinator
    takes the replay path instead: it elects the authoritative backup
    grant log ({!Repl.Election}), fences the choice with a shard-map
    epoch bump, fetches the log and folds it back into a lock table —
    recovery cost no longer scales with the client count.  Total replica
    loss falls back to the client gather transparently. *)

(** How the lock table was rebuilt (DESIGN.md §16): [Gather] asks every
    live client for its cached grants (§IV-C2); [Replay] elects the
    authoritative backup grant log and folds it — no client round-trips
    in the unavailability window. *)
type recovery_mode =
  | Gather
  | Replay of {
      r_backup : int;  (** elected replica id *)
      r_entries : int;  (** log entries fetched and replayed *)
      r_log_bytes : int;  (** modeled fetch payload *)
    }

type record = {
  f_server : int;  (** server index *)
  f_epoch : int;  (** epoch installed by this recovery *)
  f_crash : float;  (** when {!crash} fired *)
  f_detect : float;  (** when the detector declared the failure *)
  f_recover : float;  (** when the endpoints reopened *)
  f_reinstalled : int;  (** locks reinstalled (gathered or replayed) *)
  f_dropped_waiters : int;  (** queued requests lost with the lock table *)
  f_replayed_bytes : int;  (** extent-log bytes replayed for the SN floor *)
  f_mode : recovery_mode;  (** how the lock table came back *)
}

type t

val install :
  ?period:float ->
  ?hb_timeout:float ->
  ?misses_allowed:int ->
  ?lease:float ->
  Ccpfs.Cluster.t ->
  t
(** Create membership + detector for every server of the cluster and
    start the heartbeat daemons.  Defaults (in units of
    [params.rtt]): period 10, hb_timeout 20, lease 50; [misses_allowed]
    defaults to 2.
    @raise Invalid_argument if the cluster was built without
    [~reliability] — without retries, clients cannot survive an outage. *)

val crash : t -> int -> bool
(** Kill server [i] now (endpoints down, dedup + lock table lost, queued
    waiters dropped).  Returns [false] as a no-op if it is already down. *)

val await_all_up : t -> unit
(** Run the engine until every server is [Up] again.  Call after the
    workload's [Engine.run] returns to guarantee an in-flight recovery
    has completed before inspecting state. *)

val records : t -> record list
(** Completed failovers, oldest first. *)

val membership : t -> Membership.t
val detector : t -> Detector.t
