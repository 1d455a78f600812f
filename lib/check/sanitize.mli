(** Front end of the protocol sanitizer.

    Two independent switches, settable programmatically (the CLI's
    [--check] flag) or through the [CCPFS_CHECK] environment variable
    (any value enables the invariant layer; ["full"]/["all"] also enable
    the determinism double-run — how the [@sanitize] dune alias runs the
    test suites):

    - {e invariants}: wire {!Invariant} into every lock-server transition
      and every client-cache mutation, and turn engine stalls into
      wait-for-graph {!Deadlock} reports;
    - {e determinism}: harnesses additionally execute each scenario twice
      and compare event-stream fingerprints. *)

open Ccpfs

val enable_all : unit -> unit
val enabled : unit -> bool
val determinism_enabled : unit -> bool

val attach_cluster : Cluster.t -> unit
(** The invariant validator and the SN-monotonicity monitor on every
    lock server, plus cache audits on every client. *)

val check_ownership : Cluster.t -> unit
(** Shard-ownership exclusivity (DESIGN.md §15): raises {!Violation.Violation}
    if any server holds grants or queued waiters for a resource the
    shard map assigns to a different server. *)

val check_cluster : Cluster.t -> unit
(** One full sweep: Table II cross-check, all server invariants,
    shard-ownership exclusivity, all client cache-coverage checks.
    Useful at quiescence even when the per-transition hooks were not
    attached. *)

val run_cluster : ?until:float -> Cluster.t -> unit
(** [Cluster.run] but an engine deadlock is re-raised as
    {!Deadlock.Deadlock_found} with the analyzed wait-for graph. *)
