(** The invariant layer of the protocol sanitizer.

    Each invariant inspects one lock server's introspection views (never
    its internals) and raises {!Violation.Violation} when the protocol
    state contradicts the paper:

    - [lcm-compat]: no two overlapping granted locks may coexist unless
      Table II (via the independent {!Lcm_oracle}) allows it — the only
      sanctioned exception being an NBW/BW grant over a CANCELING NBW
      lock (early grant, §III-A1).
    - [sn-rules]: write-grant SNs are unique per resource and below the
      sequencer's next value (§III-C).
    - [fifo-queue]: per-resource waiter queues stay in arrival order
      (§II-A fairness).
    - [sn-monotone] (trace monitor): consecutive write grants on a
      resource carry strictly increasing SNs.
    - [cache-under-lock]: a client's dirty extents lie inside the ranges
      of its cached write-capable locks (§I, §III-D2).

    [Sanitize] installs these on every transition; tests may also call
    them directly. *)

open Seqdlm

val check_server : Lock_server.t -> unit
(** Run the Table II, SN and FIFO invariants over every resource of the
    server. *)

val monitor_sn : Lock_server.t -> unit
(** Chain a tracer that watches the grant stream for SN regressions. *)

val check_client_rid :
  lock_client:Lock_client.t -> cache:Ccpfs.Client_cache.t ->
  Types.resource_id -> unit

val check_client :
  lock_client:Lock_client.t -> cache:Ccpfs.Client_cache.t -> unit
(** [cache-under-lock] over every stripe with dirty data. *)

val pp_ranges : Format.formatter -> Ccpfs_util.Ranges.t -> unit
val pp_lock : Format.formatter -> Types.lock -> unit

val check_repl_group : Repl.Group.t -> unit
(** Replication sweep (DESIGN.md §16): every backup of the group is in a
    regime no newer than its primary's ([repl-primary-unique]) and, when
    it follows the current regime, holds an exact prefix of the
    primary's grant log ([repl-log-prefix]). *)
