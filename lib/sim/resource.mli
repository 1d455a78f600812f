(** FIFO-served rate resources: the bandwidth pipes and operation-rate
    limiters of the simulated cluster.

    A resource serves work at [rate] units per second, one request at a
    time in arrival order.  [consume r amount] blocks the calling process
    until its [amount / rate] seconds of service complete, queued behind
    all earlier requests — exactly the store-and-forward occupancy model
    behind the paper's Eq. (2): a network pipe is a resource with
    [rate = B_net] consumed in bytes, a disk is one with [rate = B_disk],
    and a lock server's RPC processor is one with [rate = OPS] consumed in
    operations. *)

type t

val create : Engine.t -> ?metric:string -> rate:float -> unit -> t
(** [rate] in units/second; [infinity] makes {!consume} free.  [metric]
    registers occupancy histograms ([resource.wait.<metric>], the FIFO
    queueing delay before service starts, and [resource.busy.<metric>],
    the service time itself) on the engine's metrics registry; kinds are
    shared across instances, so every node's data pipe aggregates into
    one instrument. *)

val reserve : t -> float -> float
(** Queue [amount] units behind all earlier requests, account their
    service, and return how long the caller must wait, from now, for
    the service to complete (0 on an infinite rate or a zero amount).
    A step process sleeps that long itself.
    @raise Invalid_argument on a negative amount. *)

val consume : t -> float -> unit
(** Block for the FIFO-queued service time of [amount] units:
    {!reserve}, then {!Engine.sleep}. *)

val busy_seconds : t -> float
(** Total service time performed so far (utilisation accounting). *)

val backlog_until : t -> float
(** Virtual time at which currently-queued work completes. *)

val rate : t -> float
