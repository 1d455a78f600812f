(** The sequenced grant log of a replicated lock server (DESIGN.md §16).

    Every durable transition of the primary's lock table
    ({!Seqdlm.Lock_server.repl_event}) is appended under a log sequence
    number; lsns are contiguous from 1 within one log regime.  A log is
    an array of events and an event's lsn is its position in it, on the
    primary, on the wire (an Append names the lsn of its first event)
    and on every backup.  The same structure holds a backup's committed
    prefix: a backup only ever commits the next lsn, so its log is
    always an exact prefix of what the primary produced in that regime
    (the "log-prefix" invariant the sanitizer sweeps).

    A log is volatile per regime: a recovery resets it ({!reset}) to a
    new regime, numbered by the shard map's fence epoch, and the
    recovering primary's reinstalls re-seed it from lsn 1, so log
    continuity survives consecutive failovers.

    Events are not boxed, and a backup holds the same event values its
    primary shipped, so a replicated event costs one array slot per
    log. *)

type t

val create : ?epoch:int -> unit -> t
val epoch : t -> int
val last_lsn : t -> int
(** Highest appended lsn; 0 for an empty log. *)

val append : t -> Seqdlm.Lock_server.repl_event -> int
(** Commit the event under the next lsn and return that lsn (the
    primary logging a transition, or a backup committing the next
    shipped event). *)

val events_from : t -> lsn:int -> Seqdlm.Lock_server.repl_event array
(** The events with lsns [>= lsn], in lsn order, in a fresh array (a
    shipped batch, a fetched log with [~lsn:1]); empty past the
    tail. *)

val reset : t -> epoch:int -> unit
(** Truncate and move to regime [epoch] (a recovery on the primary; the
    first Append of a newer regime on a backup). *)

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

val materialize : Seqdlm.Lock_server.repl_event array -> snapshot
(** Folds events in array (lsn) order. *)
