(** Write-once cells: the reply slot of an in-flight RPC.  Any number of
    processes may block in [read]; they all resume when [fill] runs. *)

type 'a t

val create : Engine.t -> 'a t

val fill : 'a t -> 'a -> unit
(** Raises [Invalid_argument] if already filled. *)

val read : ?ctx:string -> 'a t -> 'a
(** Returns immediately if filled, otherwise blocks the current process.
    [ctx] names the awaited reply in {!Engine.Deadlock} reports. *)

val await :
  ?ctx:string -> ?timeout:float -> 'a t -> (unit -> Engine.step) -> Engine.step
(** The step form of {!read} ({!Engine.step}): the continuation runs at
    once if the cell is filled, otherwise after the fill or, with
    [timeout], after that many seconds of virtual time, whichever comes
    first; {!peek} tells which.  The caller may abandon the ivar after a
    timeout: a late {!fill} finds no live waiter.
    @raise Invalid_argument on a negative timeout. *)

val is_filled : 'a t -> bool
val peek : 'a t -> 'a option
