(** The epoch/lease membership table of the failover layer.

    One entry per lock/data server.  Each entry carries the server's
    current membership epoch — bumped once per recovery, stamped on every
    fenced RPC so a recovered server rejects (and clients discard)
    traffic from before the crash — and a lease that heartbeat successes
    keep extending.  A server is declared failed only after consecutive
    heartbeat misses {e and} lease expiry, so one slow reply never
    triggers a spurious failover. *)

type state =
  | Up  (** serving; lease kept alive by heartbeats *)
  | Down  (** declared failed; endpoints fenced, recovery pending *)
  | Recovering  (** the §IV-C2 rebuild is running under the new epoch *)

type t

val create : Dessim.Engine.t -> lease:float -> names:string array -> t
(** All servers start [Up] with epoch 0 and a full lease.
    @raise Invalid_argument if [lease <= 0]. *)

val name : t -> int -> string
val state : t -> int -> state
val epoch : t -> int -> int
val set_state : t -> int -> state -> unit

val bump_epoch : t -> int -> int
(** Advance the server's epoch (the recovery fence) and return it. *)

val renew_lease : t -> int -> unit
(** Extend the lease to [now + lease] (a heartbeat succeeded). *)

val lease_expired : t -> int -> bool

val all_up : t -> bool
val state_to_string : state -> string
