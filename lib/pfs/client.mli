(** libccPFS: the POSIX-like client API (§IV).

    Locking is implicit: every IO derives its lock mode from the Fig. 10
    rules (or the traditional PR/PW mapping for baseline policies), takes
    per-stripe extent locks in resource-id order, performs the IO against
    the client cache, and puts the locks back, leaving grants cached.
    Lock ranges are 4 KiB-aligned, which is why adjacent unaligned writes
    conflict (§V-C2).

    Writes complete when the data is in the client cache; dirty data
    reaches data servers asynchronously (lock revocation, the voluntary
    flush daemon, or {!fsync}). *)

type t

val create :
  Dessim.Engine.t -> Netsim.Params.t -> Config.t -> node:Netsim.Node.t ->
  client_id:int ->
  meta:(Meta_server.req, Meta_server.resp) Netsim.Rpc.endpoint ->
  lock_route:(int -> Seqdlm.Lock_server.t) ->
  io_route:(int -> (Data_server.io_req, Data_server.io_resp) Netsim.Rpc.endpoint) ->
  policy:Seqdlm.Policy.t -> reliability:Netsim.Rpc.reliability option -> t
(** With [reliability], lock traffic, control messages and data-server
    I/O all go through the fenced retry transport under the client's one
    epoch view (online-failover survival); [None] keeps the plain
    transport paths. *)

type file

val open_file :
  t -> ?create:bool -> ?layout:Layout.t -> string -> file
(** Opens (or creates, default layout 1 stripe) a file by path.
    @raise Not_found if absent and [create] is false. *)

val fid : file -> int
val layout : file -> Layout.t

val write :
  ?mode:Seqdlm.Mode.t -> ?lock_whole_range:bool -> t -> file -> off:int ->
  len:int -> unit
(** Contiguous write.  [mode] overrides the Fig. 10 selection and
    [lock_whole_range] requests [0, EOF) locks on each touched stripe
    (both used by the microbenchmarks, Fig. 16: "each write acquires a
    write lock with the range [0, EOF]"). *)

val write_multi : ?mode:Seqdlm.Mode.t -> t -> file ->
  ranges:Ccpfs_util.Interval.t list -> unit
(** Atomic non-contiguous write (Tile-IO).  Under SeqDLM each stripe is
    locked with the minimum covering range; under DLM-datatype the exact
    ranges are sent (datatype locking). *)

val read :
  t -> file -> off:int -> len:int ->
  (int * Ccpfs_util.Interval.t * Ccpfs_util.Content.tag option) list
(** Read under PR locks; returns (stripe, object-space range, provenance)
    segments, local dirty data overlaid, ordered by (stripe, offset). *)

val read_checksum : t -> file -> off:int -> len:int -> int
(** Stable checksum of {!read}'s result (the §V-B1 comparison). *)

val append : t -> file -> len:int -> int
(** Atomic append: PW whole-file locks, reads the global size from the
    metadata server, writes, updates the size.  Returns the offset. *)

val truncate : t -> file -> size:int -> unit
val stat_size : t -> file -> int
val fsync : t -> unit
(** Flush all dirty data of this client to the data servers. *)

val fsync_file : t -> file -> unit
(** Flush only this file's dirty data. *)

val crash : t -> int
(** Simulate a client failure (§IV-C1): all dirty data still in the
    cache is lost — the documented convention shared with ext4, Lustre
    and BeeGFS; data already flushed survives.  Returns the number of
    bytes lost.  The client object must not be used afterwards. *)

val group_by_stripe :
  (int * Ccpfs_util.Interval.t) list -> (int * Ccpfs_util.Interval.t list) list
(** [group_by_stripe chunks] gathers (stripe, object-space range) chunks
    per stripe, in increasing stripe order, each stripe's ranges
    normalized (sorted, touching ones merged). *)

(** {1 Instrumentation} *)

val lock_client : t -> Seqdlm.Lock_client.t
val cache : t -> Client_cache.t
val node : t -> Netsim.Node.t
val bytes_written : t -> int
val bytes_read : t -> int
val ops : t -> int
