(** The DLM service of a data server.

    One lock server manages the lock resources of the stripes its node
    owns.  Processing follows §II-A/§III: requests queue FIFO per
    resource; a request is granted when it is compatible (per the Table II
    LCM) with every granted lock and does not conflict with an
    earlier-queued request (fairness — no starvation by later arrivals).

    Conflict resolution revokes GRANTED conflicting locks with a one-way
    callback.  Once the holder's revocation reply arrives the lock turns
    CANCELING; with early grant (NBW modes) that is enough to grant the
    waiting request, without waiting for the holder's data flushing and
    release.  When a grant could not be expanded and a queued request
    already conflicts with it, early revocation tags the grant CANCELING
    so no callback round-trip will ever be needed for it.

    Automatic lock conversion (upgrading) happens here too: a request
    conflicting only with GRANTED locks of the same client is granted with
    the join of the modes, merging those locks away ([replaces] in the
    grant).  Downgrading is client-initiated via the control endpoint.

    All handlers are non-blocking: deferred grants hold the RPC [reply]
    and fire it from a later queue pass. *)

type t

type stats = {
  mutable grants : int;
  mutable early_grants : int;
      (** grants that proceeded over an overlapping CANCELING NBW lock
          (Table II's early-grant cells).  A PR grant over a CANCELING PR
          lock is not one: that pair is compatible in both states. *)
  mutable early_revocations : int;  (** grants tagged CANCELING *)
  mutable revokes_sent : int;
  mutable upgrades : int;  (** grants whose mode was raised by conversion *)
  mutable downgrades : int;
  mutable releases : int;
  mutable expansions : int;  (** grants whose range grew *)
  mutable revocation_wait : float;
      (** total time granted requests spent waiting for conflicting locks
          to turn CANCELING (Fig. 17 part ①) *)
  mutable release_wait : float;
      (** total time spent waiting, after that, for flush + release
          (Fig. 17 part ②) *)
  mutable max_queue : int;
}

val create :
  Dessim.Engine.t -> Netsim.Params.t -> node:Netsim.Node.t -> name:string ->
  policy:Policy.t -> t

val lock_endpoint : t -> (Types.request, Types.lock_reply) Netsim.Rpc.endpoint
(** The request/grant RPC.  In a sharded cluster the reply can be
    [Stale_owner] (DESIGN.md §15): the server consulted the ownership
    hooks ({!set_sharding}) and no longer owns the resource — the caller
    must refresh its shard-map cache and retry at the current owner. *)

val ctl_endpoint : t -> (Types.ctl_msg, unit) Netsim.Rpc.endpoint

val register_client :
  t -> Types.client_id -> (Types.server_msg, unit) Netsim.Rpc.endpoint -> unit
(** Where to deliver revocation callbacks for this client. *)

(** {1 Direct entry points (tests and benchmarks)}

    The in-process equivalents of the lock/ctl RPC endpoints: apply one
    protocol step synchronously, including every queue pass it causes.
    The model-based table tests and microbenchmarks drive the server
    through these, bypassing the simulated network. *)

val submit : t -> Types.request -> on_grant:(Types.grant -> unit) -> unit
(** Enqueue a request; [on_grant] fires (possibly later, from another
    step's queue pass) when it is granted. *)

val control : t -> Types.ctl_msg -> unit
(** Apply a revoke-ack, downgrade or release. *)

val min_unreleased_write_sn :
  t -> Types.resource_id -> Ccpfs_util.Interval.t -> int option
(** Minimum SN among unreleased write locks overlapping the range, or
    [None] if there is none — the mSN query of the extent-cache cleanup
    task (§IV-B): cache entries with SN <= mSN are reclaimable. *)

val sync_resource : t -> Types.resource_id -> on_behalf:Types.client_id ->
  reply:(unit -> unit) -> unit
(** Force-synchronise all outstanding writes of a resource by queueing a
    whole-range PR request (the extent-cache overflow fallback of §IV-B);
    [reply] fires once every conflicting write lock has been released, and
    the internal lock is dropped immediately. *)

(** {1 Tracing}

    An optional tracer observes every protocol step with its virtual
    timestamp — the timeline the `ccpfs_run trace` command narrates. *)

type trace_event =
  | T_request of Types.request
  | T_grant of Types.grant * [ `Normal | `Early ]
  | T_revoke of { t_rid : Types.resource_id; t_lock_id : int;
                  t_client : Types.client_id }
  | T_ack of { t_rid : Types.resource_id; t_lock_id : int }
  | T_release of { t_rid : Types.resource_id; t_lock_id : int }
  | T_downgrade of { t_rid : Types.resource_id; t_lock_id : int;
                     t_mode : Mode.t }
  | T_crash of { t_dropped_waiters : int }
      (** [crash_online]: the volatile lock table (and any queued
          waiters) was just lost *)

val set_tracer : t -> (float -> trace_event -> unit) -> unit
val pp_trace_event : Format.formatter -> trace_event -> unit

val add_tracer : t -> (float -> trace_event -> unit) -> unit
(** Chain another tracer after whatever is already installed — the
    sanitizer monitors the protocol this way without stealing the trace
    slot from the CLI's [trace] command. *)

(** {1 Sanitizer hooks}

    The protocol sanitizer ([Check]) installs a validator that is invoked
    after every externally triggered state transition — lock request,
    control message (revoke-ack / downgrade / release), and resource sync —
    once the scheduling passes it caused have settled.  The lock server
    carries no knowledge of what is being checked. *)

val set_validator : t -> (t -> unit) -> unit

(** {1 Replication feed (lib/repl, DESIGN.md §16)}

    With a hook installed, every durable transition of the lock table is
    published as an upsert/drop event in the same simulated event as the
    transition itself — the stream a primary appends to its grant log and
    ships to backups.  Queued waiters are deliberately not part of the
    stream: their reply closures belong to this server's transport, and
    the fenced retry path resubmits them after a failover (the same
    contract as the gather-based recovery).  Crashes emit nothing — the
    log survives on the backups, not here. *)

type repl_event =
  | R_lock of {
      rid : Types.resource_id;
      lock_id : int;
      client : Types.client_id;
      mode : Mode.t;
      ranges : Ccpfs_util.Ranges.t;
      sn : int;
      state : Lcm.lock_state;
    }
      (** upsert: grant, reinstall, revoke-ack, downgrade.  The fields of
          {!Types.lock}, kept inline so a logged event is one block. *)
  | R_drop of { e_rid : Types.resource_id; e_lock_id : int }
      (** release, upgrade-merge, sync pseudo-lock drop *)
  | R_sn of { e_rid : Types.resource_id; e_next_sn : int }
      (** the resource's sequencer advanced (or its floor was restored) *)
  | R_drop_resource of { e_rid : Types.resource_id }
      (** the whole resource migrated away *)

val set_repl_hook : t -> (repl_event -> unit) -> unit

(** {1 Server recovery (§IV-C2)}

    A failed lock server loses its in-memory lock table.  Recovery first
    gathers the grants still cached in clients and reinstalls them, then
    restores each resource's sequence number above every SN it may ever
    have issued (the maximum of the recovered locks' SNs and the SNs in
    the data server's extent log). *)

val crash : t -> unit
(** Drop all lock state.  Only legal while no requests are queued (HPC
    recovery happens between runs, §IV-C2); raises [Invalid_argument] if
    a waiter would lose its reply. *)

val crash_online : t -> int
(** Drop all lock state {e including} queued waiters, returning how many
    were dropped.  Only sound when every caller submits through the fenced
    retry path ([Rpc.call_reliable]): a dropped waiter's client times out
    and resubmits against the recovered epoch.  This is the crash the HA
    layer injects under live traffic. *)

val reinstall : t -> Types.lock list -> unit
(** Re-adopt granted locks, in list order — gathered from client caches,
    replayed from a grant log, or migrated from another server. *)

val restore_sn_floor : t -> Types.resource_id -> int -> unit
(** Ensure the resource's next SN is strictly greater than [sn]. *)

(** {1 Sharded namespace (DESIGN.md §15)}

    With ownership hooks installed, the lock endpoint bounces requests
    for resources this server does not own ([Stale_owner] carrying the
    current map epoch) and control messages are forwarded on to the
    owner's ctl endpoint.  Without hooks the server owns everything —
    the pre-sharding behaviour, and what every direct-driven test gets.

    Migrating a resource out is a three-step handshake driven by the
    cluster coordinator: {!freeze} parks new intake, the coordinator
    flips the authoritative map, and {!migrate_out} extracts the lock
    table (bouncing parked and queued waiters with the new epoch) for
    {!adopt} on the new owner.  {!cancel_freeze} aborts, replaying the
    parked intake locally. *)

val set_sharding :
  t ->
  owned:(Types.resource_id -> bool) ->
  epoch:(unit -> int) ->
  forward_ctl:
    (Types.resource_id -> (Types.ctl_msg, unit) Netsim.Rpc.endpoint option) ->
  unit

type migration_state = {
  mig_rid : Types.resource_id;
  mig_next_sn : int;  (** the resource's sequencer position, preserved *)
  mig_locks : Types.lock list;  (** granted locks, sorted by lock id *)
  mig_clients :
    (Types.client_id * (Types.server_msg, unit) Netsim.Rpc.endpoint) list;
      (** revoke-callback registrations the new owner needs *)
}

val freeze : t -> Types.resource_id -> unit
(** Park all new lock requests for the resource (they are neither queued
    nor bounced) while in-flight protocol activity drains.  Raises
    [Invalid_argument] if the resource is already freezing. *)

val cancel_freeze : t -> Types.resource_id -> unit
(** Abort a freeze: replay the parked intake locally, in arrival order. *)

val is_frozen : t -> Types.resource_id -> bool
(** Whether a {!freeze} is in place for the resource.  A crash
    ({!crash_online}) clears all freezes, so a migration coordinator
    re-checks this after its drain window. *)

val can_migrate : t -> Types.resource_id -> bool
(** Whether {!migrate_out} would succeed right now — false iff an
    internal sync pseudo-request is queued on the resource.  Check it in
    the same simulated event as the {!migrate_out} call. *)

val migrate_out : t -> Types.resource_id -> epoch:int -> migration_state option
(** Extract the resource's lock table for transfer, bouncing queued
    waiters and parked intake with [Stale_owner {epoch}] — each client
    refreshes its map and resubmits at the new owner.  Returns [None]
    (leaving the freeze in place) if an internal sync pseudo-request is
    queued: its reply closure cannot move, so the caller must
    {!cancel_freeze} and retry later. *)

val adopt : t -> migration_state -> unit
(** Install a migrated resource: register the transferred clients'
    revoke endpoints, reinstall the grants, and restore the sequencer so
    the next SN issued here continues exactly where the old owner
    stopped.  The caller additionally applies the extent-log SN floor
    from the resource's (static) data server. *)

val hottest_resource : t -> (Types.resource_id * int) option
(** The resource with the deepest waiting queue (smallest rid on ties),
    or [None] if nothing is queued. *)

val inject_sn_reuse : t -> every:int -> unit
(** Fault injection for the sanitizer/fuzzer tests only: every [every]-th
    write-lock grant reissues the resource's previous sequence number
    instead of a fresh one — the SN-ordering bug the "sn-rules" and
    "sn-monotone" invariants exist to catch. *)

(** {1 Introspection (tests and reports)} *)

val granted_locks : t -> Types.resource_id -> Types.lock list
(** Sorted by lock id: the records a recovery gather reports and
    {!reinstall} takes. *)

type waiter_view = {
  q_client : Types.client_id;
  q_mode : Mode.t;  (** as requested *)
  q_eff_mode : Mode.t;  (** after conversion joins *)
  q_ranges : Ccpfs_util.Ranges.t;
  q_enq_time : float;
}

val waiting_view : t -> Types.resource_id -> waiter_view list
(** The resource's FIFO queue, head first. *)

val resource_ids : t -> Types.resource_id list
(** Every resource this server has state for, ascending. *)

val queue_length : t -> Types.resource_id -> int
val next_sn : t -> Types.resource_id -> int
val stats : t -> stats
val policy : t -> Policy.t
val node : t -> Netsim.Node.t
val name : t -> string

val check_indexes : t -> unit
(** Asserts that every index agrees with the state it indexes: the lock
    table, the two grant interval trees (CANCELING NBW locks in one,
    every other lock in the other), the waiting-queue indexes and the
    live queue counter.  Also asserts that every queue is settled: a
    read-only walk over it, with a fresh blocked-set accumulator, finds
    no waiter it would grant, no conflicting GRANTED lock whose revoke
    is unsent, no unstamped revocation-wait mark whose conflicts are
    all CANCELING and no effective mode the conversion join would still
    raise; a kept pass cache lies inside that walk's accumulator.
    Holds after any sequence of control messages. *)

val check_invariants : t -> unit
(** {!check_indexes}, and asserts that no two granted locks are mutually
    incompatible while both GRANTED, and that write-lock SNs are unique
    per resource. *)
