(** Condition variables for processes waiting on a predicate over shared
    simulated state (e.g. "dirty bytes below the forced-flush
    threshold").  There is no separate mutex: processes are cooperative,
    so state cannot change between the predicate check and the wait. *)

type t

val create : Engine.t -> t

val wait : ?ctx:string -> t -> unit
(** Block until the next {!signal} or {!broadcast}.  [ctx] names the
    awaited state in {!Engine.Deadlock} reports. *)

val wait_until : ?ctx:string -> t -> (unit -> bool) -> unit
(** Re-check the predicate after each wakeup; returns once it holds.
    Returns immediately if it already holds. *)

val signal : t -> unit
(** Wake one waiter (FIFO), if any. *)

val broadcast : t -> unit
(** Wake all current waiters. *)
