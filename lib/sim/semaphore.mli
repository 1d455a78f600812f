(** Counting semaphores with FIFO wakeup, used to bound concurrency
    (e.g. forwarding-daemon thread pools) and to model mutual exclusion
    inside simulated servers. *)

type t

val create : Engine.t -> int -> t
(** Initial number of permits (>= 0). *)

val acquire : ?ctx:string -> t -> unit
(** Take a permit, blocking FIFO if none are available.  [ctx] names the
    contended resource in {!Engine.Deadlock} reports. *)

val release : t -> unit

val with_permit : t -> (unit -> 'a) -> 'a
(** Acquire, run, release (also on exception). *)

val available : t -> int
