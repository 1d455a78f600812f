(** A replication group: one primary lock server's grant log plus its
    [f] backup replicas, and the shipping path between them
    (DESIGN.md §16).

    {!attach} installs the group as the lock server's replication hook:
    every durable transition appends to the primary log and is shipped —
    bounded-lag, one reliable courier per backup per entry — over the
    fenced transport.  The grant reply never waits for the backup acks;
    the couriers retry until each backup commits (or until a backup in a
    newer epoch acknowledges-and-discards the orphan). *)

type t

val create :
  Dessim.Engine.t -> Netsim.Params.t -> name:string -> src:Netsim.Node.t ->
  backups:Replica.t array -> ?reliability:Netsim.Rpc.reliability ->
  salt:int -> unit -> t
(** [name] is the primary lock server's name; [src] its node; [salt]
    partitions the shipping request-id space (one distinct salt per
    group). *)

val attach : t -> Seqdlm.Lock_server.t -> unit
val engine : t -> Dessim.Engine.t
val log : t -> Grant_log.t
val backups : t -> Replica.t array
val f : t -> int
val name : t -> string

val reset : t -> epoch:int -> unit
(** Truncate the primary log into a new regime (recovery: the
    reinstalls that follow re-seed the backups from lsn 1). *)

val max_lag : t -> int
(** Primary entries the slowest backup has not committed (same-epoch
    backups; a backup still in an older epoch counts as fully lagging). *)
