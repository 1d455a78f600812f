(** The client side of the lock protocol: the per-client lock-grant
    cache, revocation handling and the cancel path.

    Acquiring first probes the cache for a GRANTED lock whose mode
    subsumes the requested one and whose ranges cover the request
    (§II-A); otherwise it sends a lock request and blocks for the grant.
    Grants arriving in the CANCELING state (early revocation) are used
    once and then cancelled.

    A revocation callback flips the lock to CANCELING so no new IO can
    use it, acknowledges immediately, and a canceller process then waits
    for ongoing holders, performs the automatic downgrade (§III-D2) —
    BW → NBW before flushing, PW → NBW before flushing when dirty data
    exists, PW → PR otherwise — flushes the dirty data under the lock via
    the cache hooks, and releases.

    The data cache itself lives in the PFS layer and is reached through
    {!hooks}: the lock manager stays independent of what it protects. *)

type t

type hooks = {
  flush : rid:Types.resource_id -> ranges:Ccpfs_util.Interval.t list -> unit;
      (** Flush the dirty extents under these ranges to the data server;
          blocks until the data is durable there.  May be called with
          nothing dirty (no-op). *)
  has_dirty : rid:Types.resource_id -> ranges:Ccpfs_util.Interval.t list -> bool;
  invalidate : rid:Types.resource_id -> ranges:Ccpfs_util.Interval.t list -> unit;
      (** Drop clean cached data under these ranges: called when a lock
          loses its read capability (cancel, or PW → NBW downgrade) so the
          client cannot serve stale reads afterwards. *)
}

val create :
  Dessim.Engine.t -> Netsim.Params.t -> node:Netsim.Node.t ->
  client_id:Types.client_id -> route:(Types.resource_id -> Lock_server.t) ->
  hooks:hooks -> t
(** [route] maps a resource to the lock server owning it (ccPFS colocates
    the DLM service for a stripe with the data server storing it).  The
    client registers its callback endpoint with each server on first
    contact.  The conversion policy is taken from each server's policy. *)

type handle
(** A held reference to a cached lock.  Must be released exactly once. *)

val acquire :
  t -> rid:Types.resource_id -> mode:Mode.t ->
  ranges:Ccpfs_util.Interval.t list -> handle
(** Blocks the calling process until a usable lock is held. *)

val release : t -> handle -> unit
(** Drop the hold.  GRANTED locks stay cached for reuse; CANCELING locks
    begin their cancel once the last holder is gone. *)

val with_lock :
  t -> rid:Types.resource_id -> mode:Mode.t ->
  ranges:Ccpfs_util.Interval.t list -> (handle -> 'a) -> 'a

val lock_id : handle -> int
(** The server-assigned id of the held lock. *)

val sn : handle -> int
(** Sequence number tagging data written under this hold. *)

val mode : handle -> Mode.t
val granted_ranges : handle -> Ccpfs_util.Interval.t list
val is_canceling : handle -> bool

(** {1 Server recovery (§IV-C2)}

    After a lock-server failure the server rebuilds its lock table by
    gathering the grants its clients still cache. *)

type recovery_lock = {
  r_rid : Types.resource_id;
  r_lock_id : int;
  r_mode : Mode.t;
  r_ranges : Ccpfs_util.Interval.t list;
  r_sn : int;
  r_state : Lcm.lock_state;
}

val locks_for_recovery :
  t -> owned:(Types.resource_id -> bool) -> recovery_lock list
(** The cached locks whose resources the recovering server owns
    (canceling locks included: their releases are still coming). *)

(** {1 Online failover (lib/ha)}

    With a retry policy installed, lock requests go through the fenced
    transport ({!Netsim.Rpc.call_reliable}) and control messages become
    reliable sends — the client survives a lock-server crash with
    requests in flight.  Without one, behaviour is identical to the
    plain paths. *)

val set_reliability : t -> Netsim.Rpc.reliability -> unit

(** {1 Sharded namespace (DESIGN.md §15)}

    In a sharded cluster the [route] closure reads a shard-map cache,
    and a server that no longer owns a resource answers [Stale_owner].
    The refresh hook fetches a map snapshot of at least the bounce's
    epoch and installs it, after which {!acquire} re-routes and
    retries.  Without a hook a bounce is a protocol failure. *)

val set_map_refresh : t -> (min_epoch:int -> unit) -> unit

val stale_bounces : t -> int
(** [Stale_owner] bounces seen so far (each costs one extra round
    trip plus the map fetch). *)

(** {1 Piggybacking (DESIGN.md §13)}

    When the policy rides releases on flush traffic
    ([Policy.piggyback_release] — SeqDLM's release-on-last-flush-block
    rule, paper §III-B), outgoing control messages (revoke-acks,
    downgrades, releases) are parked per server until the current event
    cascade ends: a flush RPC towards the same server takes them along
    ({!take_piggyback}, wired into the data cache by {!Client}), and a
    zero-delay timer drains leftovers as plain notifies.  Per-server send
    order is preserved.  Only legal on the plain transport — under a
    retry policy control messages must stay individually reliable, so
    {!Client} never enables both. *)

val set_piggyback : t -> unit
val take_piggyback : t -> rid:Types.resource_id -> Types.ctl_msg list
(** Remove and return every parked control message for the server owning
    [rid], in send order; [[]] when piggybacking is off or nothing is
    parked. *)

val view : t -> Netsim.Rpc.View.t
(** The client's epoch view and request-id allocator, shared with the
    PFS layer so data-server I/O is fenced by the same epochs. *)

val retries : t -> int
(** Fenced-call retransmissions performed so far (all endpoints). *)

type recovery_query = {
  rq_server : string;  (** node name of the crashed server, e.g. ["ds0"] *)
  rq_epoch : int;  (** the recovery epoch being installed *)
  rq_endpoints : string list;  (** endpoint names to fence in the view *)
}

val recovery_endpoint :
  t -> (recovery_query, recovery_lock list) Netsim.Rpc.endpoint
(** The gather service the recovery coordinator calls.  Its handler first
    raises the client's epoch view over [rq_endpoints] — fencing off any
    still-in-flight grant from the crashed epoch — and then reports
    {!locks_for_recovery} for the resources routed to [rq_server]. *)

(** {1 Instrumentation} *)

val locking_seconds : t -> float
(** Total virtual time spent blocked in {!acquire} (the "locking time" of
    Fig. 18(b)). *)

val acquires : t -> int
val cache_hits : t -> int
val cancels : t -> int
val cached_locks : t -> int
val client_id : t -> Types.client_id
