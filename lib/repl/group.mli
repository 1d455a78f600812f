(** A replication group: one primary lock server's grant log plus its
    [f] backup replicas, and the shipping path between them
    (DESIGN.md §16).

    {!attach} installs the group as the lock server's replication hook:
    every durable transition appends to the primary log, and the log
    streams to each backup over the fenced transport (bounded lag).
    Each backup has at most one Append in flight: a batch of the log
    suffix it has not been sent, carried by one reliable courier
    ({!Netsim.Rpc.stream_reliable}) that retries it until the backup
    acknowledges, then sends whatever was appended meanwhile, or ends.
    So an entry waits behind at most one round trip before it goes on
    the wire.  The grant reply never waits for the backup acks.  A
    backup in a newer regime acknowledges an orphaned Append without
    applying it. *)

type t

val create :
  Dessim.Engine.t -> name:string -> src:Netsim.Node.t ->
  backups:Replica.t array -> ?reliability:Netsim.Rpc.reliability ->
  salt:int -> unit -> t
(** [name] is the primary lock server's name; [src] its node; [salt]
    partitions the shipping request-id space (one distinct salt per
    group). *)

val attach : t -> Seqdlm.Lock_server.t -> unit
(** Make {!append} the lock server's replication hook. *)

val append : t -> Seqdlm.Lock_server.repl_event -> unit
(** Log one entry and start the courier of each backup that has none
    running; a running courier ships the entry after its current
    Append is acknowledged. *)

val log : t -> Grant_log.t
val backups : t -> Replica.t array
val f : t -> int
val name : t -> string

val reset : t -> epoch:int -> unit
(** Truncate the primary log into a new regime (recovery: the
    reinstalls that follow re-seed the backups from lsn 1).  Every
    backup's cursor rewinds to 0: a courier with an Append of the old
    regime in flight finishes it, then ships the new regime from
    lsn 1. *)

val max_lag : t -> int
(** Primary entries the slowest backup has not committed (same-epoch
    backups; a backup still in an older epoch counts as fully lagging). *)
