(** Unbounded FIFO message queues between simulated processes.  [recv]
    blocks the calling process until a message is available; messages are
    delivered in send order. *)

type 'a t

val create : Engine.t -> 'a t
val send : 'a t -> 'a -> unit
(** Never blocks. *)

val recv : ?ctx:string -> 'a t -> 'a
(** Blocks the current process until a message arrives.  [ctx] names the
    awaited message in {!Engine.Deadlock} reports. *)
