(** The sequenced grant log of a replicated lock server (DESIGN.md §16).

    Every durable transition of the primary's lock table
    ({!Seqdlm.Lock_server.repl_event}) is appended under a log sequence
    number; lsns are contiguous from 1 within one log epoch.  The same
    structure holds a backup's committed prefix — a backup applies
    entries strictly in lsn order, so its log is always an exact prefix
    of what the primary produced under that epoch (the "log-prefix"
    invariant the sanitizer sweeps).

    A log is volatile per epoch: an elected recovery resets it
    ({!reset}) to the new membership epoch and the recovering primary's
    reinstalls re-seed it, so log continuity survives consecutive
    failovers.

    A log is an array of events indexed by lsn.  Entries are not boxed,
    and a backup holds the same event values its primary shipped, so a
    replicated entry costs one array slot per log.  {!entry} records
    exist only in the lists {!entries} builds. *)

type entry = { lsn : int; ev : Seqdlm.Lock_server.repl_event }
type t

val create : ?epoch:int -> unit -> t
val epoch : t -> int
val last_lsn : t -> int
(** Highest appended lsn; 0 for an empty log. *)

val length : t -> int

val append : t -> Seqdlm.Lock_server.repl_event -> int
(** Assign the next lsn (primary side) and return it. *)

val append_entry : t -> entry -> unit
(** Commit an already-numbered entry (backup side).
    @raise Invalid_argument unless [entry.lsn] is exactly the next lsn. *)

val entries : t -> entry list
(** In lsn order. *)

val events_from : t -> lsn:int -> Seqdlm.Lock_server.repl_event array
(** The events with lsns [>= lsn], in lsn order, in a fresh array (a
    shipped batch); empty past the tail. *)

val reset : t -> epoch:int -> unit
(** Truncate and move to a new epoch (election / adoption). *)

val event_bytes : Seqdlm.Lock_server.repl_event -> int
(** Modeled wire size of one shipped event. *)

val bytes : t -> int
(** Modeled wire size of the whole log (a fetch's response payload): the
    sum of {!event_bytes} over its events. *)

(** {1 Replay}

    Folding a log prefix yields the lock table it describes: upserts and
    drops resolve to the surviving lock set per resource, [R_sn] events
    to the exact pre-crash sequencer position.  Each surviving lock is
    the {!Seqdlm.Types.lock} record the server's table lists and the
    clients report to a gather, so a snapshot feeds the same reinstall
    path.  Queued waiters are not part of the log — the fenced retry
    path resubmits them after a failover, exactly as it does for the
    gather-based recovery. *)

type snap_resource = {
  sr_locks : Seqdlm.Types.lock list;  (** ascending lock id *)
  sr_next_sn : int;  (** highest published sequencer position, else 1 *)
}

type snapshot = (Seqdlm.Types.resource_id * snap_resource) list
(** Ascending rid. *)

val materialize : entry list -> snapshot
