(** The shadow-file oracle: an in-memory model of what the shared file
    must contain, maintained from the semantic write stream and compared
    byte-for-byte against data-server contents after the final flush.

    The journal entry for a write is its client-cache insert — the
    moment the data exists under a granted lock (reported by
    {!Ccpfs.Client_cache.set_write_observer} with the lock's SN and the
    writer's op counter).  Inserts are applied to the shadow per byte
    keeping the lexicographically largest [(sn, op)]: under early grant
    a lower-SN insert can *complete* after a higher-SN conflicting write
    (the revoked holder acks immediately while the old writer is still
    blocked in cache backpressure), so completion order alone is not the
    serialization order — but SN order is, by construction, and a
    writer's own op counter orders its successive writes under one
    cached grant.  This mirrors exactly the merge rule the data servers
    apply to flushed blocks, which is why a correct cluster must match
    the shadow and a dropped, duplicated, misordered or misdirected
    flush cannot.

    Truncates are applied at their position in the journal: a truncate
    holds whole-file PW locks, which are never early-granted and force
    conflicting dirty data out first, so its completion really does
    split the write stream. *)

type entry = { writer : int; op : int; sn : int }

exception Divergence of string
(** Raised by {!check_against} with a byte-precise account. *)

type t

val create : layout:Ccpfs.Layout.t -> t

val record_write :
  t -> writer:int -> rid:int -> range:Ccpfs_util.Interval.t -> sn:int ->
  op:int -> unit
(** Journal one dirty-cache insert ([range] in object space of [rid]'s
    stripe; mapped back to file space through the layout). *)

val record_truncate : t -> size:int -> unit
(** Journal a completed truncate: all modeled bytes at file offsets
    [>= size] become holes. *)

val check_against : t -> Ccpfs.Cluster.t -> Ccpfs.Client.file -> unit
(** Compare every byte of every stripe's device contents against the
    shadow: provenance [(writer, op, sn)] must match exactly, holes
    included.  Call after [Cluster.fsync_all].
    @raise Divergence on the first mismatch. *)
