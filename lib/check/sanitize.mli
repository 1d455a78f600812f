(** Front end of the protocol sanitizer.

    One switch, the [CCPFS_CHECK] environment variable: unset is off,
    [full] is on, and any other value raises [Invalid_argument] naming
    the knob.  The [@sanitize] dune alias runs the test suites with it
    on.  When on, a harnessed run

    - wires {!Invariant} into every lock-server transition and every
      client-cache mutation, and turns engine stalls into wait-for-graph
      {!Deadlock} reports;
    - executes each scenario twice and compares event-stream
      fingerprints. *)

open Ccpfs

val enabled : unit -> bool
(** [CCPFS_CHECK=full], read at each call. *)

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
