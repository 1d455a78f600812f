(** The IO service of a ccPFS data server (§IV-B, Fig. 15).

    Flush RPCs carry SN-tagged blocks that may arrive out of order across
    conflicting locks.  The server merges each block into the per-stripe
    extent cache keeping the larger (SN, writer-op) per byte — the SN
    orders conflicting locks, the writer's op counter orders successive
    writes under one cached (reused) lock, e.g. a voluntary daemon flush
    followed by an overwrite and a re-flush with the same SN; the parts
    where the incoming block won (the update set) are written to the
    device and applied to stripe contents, the rest is discarded.  Optionally
    every update-set entry is appended to a per-stripe extent log so the
    cache can be rebuilt on recovery.

    A background cleanup task bounds the extent cache: when the total
    entry count exceeds the configured limit it queries the colocated
    lock server for the minimum SN of unreleased write locks (mSN) and
    drops entries whose SN <= mSN — SeqDLM guarantees data with smaller
    SNs is already on the device.  If that cannot reclaim enough, the
    server force-synchronises writers by taking a whole-range read lock
    per stripe and then clears the caches and logs. *)

type t

type block = {
  b_range : Ccpfs_util.Interval.t;  (** object-space byte range *)
  b_tag : Ccpfs_util.Content.tag;  (** its [sn] is the write lock's SN *)
}

type io_req =
  | Write_flush of {
      rid : int;
      extents : Ccpfs_util.Content.tag Ccpfs_util.Extent_map.t;
          (** the flushed blocks: the client's dirty extents under the
              flushed ranges, cut out of its dirty map as one persistent
              sub-map (a whole-stripe flush hands the map over as it
              is).  The server applies them in offset order.  When the
              span from the first block's start to the last one's end
              holds nothing in the stripe's extent cache, the map is
              joined into the cache whole, and into the device as well
              where the span is free there, so the message, the cache
              and the device share its nodes (DESIGN.md §17); the cache,
              the extent log, the stats and the update set are those of
              the block-by-block merge. *)
      ctl : Seqdlm.Types.ctl_msg list;
          (** lock-control messages piggybacked on the flush (acks,
              downgrades, releases — DESIGN.md §13); the server splits
              them around the blocks: acks and downgrades are applied to
              the colocated lock server first, releases only after the
              blocks are durable, so a release riding with the data it
              covers is safe *)
    }
  | Read of { rid : int; range : Ccpfs_util.Interval.t }
  | Truncate of { rid : int; keep_below : int }

type io_resp =
  | Done
  | Data of (Ccpfs_util.Interval.t * Ccpfs_util.Content.tag option) list

val create :
  Dessim.Engine.t -> Netsim.Params.t -> Config.t -> node:Netsim.Node.t ->
  name:string -> lock_server:Seqdlm.Lock_server.t -> t
(** The lock server must be the colocated DLM service for this node's
    stripes (mSN queries are local calls).  Starts the cleanup daemon. *)

val endpoint : t -> (io_req, io_resp) Netsim.Rpc.endpoint

val ingest : t -> rid:int -> block -> int
(** Merge one block into the stripe's extent cache and contents as a
    [Write_flush] does (Fig. 15 steps ①-④, with the amortised
    same-(SN, op) coalescing), but without the RPC, the disk time or the
    cleanup trigger.  Returns the update-set bytes.  This is the
    per-block routine the micro-benchmarks time. *)

val set_lock_route : t -> (int -> Seqdlm.Lock_server.t) -> unit
(** Install the authoritative rid → owning-lock-server route of a
    sharded cluster (DESIGN.md §15).  The mSN queries of the cleanup
    task, the piggybacked ctl application and {!sync_resource} fallbacks
    then follow resource migrations instead of always consulting the
    colocated server.  Without it the colocated server owns everything
    (the pre-sharding behaviour). *)

val contents : t -> int -> Ccpfs_util.Content.t
(** Current device contents of a stripe (empty if never written), frozen:
    later IO to the stripe leaves the returned contents as they are.
    O(1); the next write to the stripe copies the nodes it changes once
    ({!Ccpfs_util.Extent_map.Transient.freeze}). *)

val extent_cache_entries : t -> int
(** Total extent-cache entries across stripes. *)

val extent_cache_of : t -> int -> (Ccpfs_util.Interval.t * int) list
(** A stripe's extent cache: (range, max SN) entries. *)

val rebuild_extent_cache_from_log :
  t -> int -> (Ccpfs_util.Interval.t * int) list
(** Replay the stripe's extent log (§IV-C2).  The result must equal the
    live extent cache — asserted by the recovery tests.
    @raise Invalid_argument if the extent log is disabled. *)

val crash_and_rebuild : t -> unit
(** Simulate a server failure: the in-memory extent caches are lost and
    rebuilt by replaying each stripe's extent log; stripe contents (the
    device) survive.
    @raise Invalid_argument if the extent log is disabled. *)

val max_logged_sn : t -> int -> int option
(** Largest SN in a stripe's extent log (restores the lock server's
    sequence-number floor during recovery). *)

val stripe_rids : t -> int list
(** Every stripe this server has seen IO for. *)

type stats = {
  mutable flush_rpcs : int;
  mutable blocks_in : int;
  mutable bytes_received : int;
  mutable bytes_written : int;  (** update-set bytes that reached the device *)
  mutable bytes_discarded : int;  (** stale bytes dropped by SN merging *)
  mutable reads : int;
  mutable cleanup_runs : int;
  mutable cleanup_removed : int;
  mutable force_syncs : int;
  mutable cache_peak : int;
  mutable coalesced : int;
      (** extent-cache entries absorbed by same-(SN, op) neighbour
          merging (Fig. 15) *)
}

val stats : t -> stats
val node : t -> Netsim.Node.t

val inject_drop_block : t -> every:int -> unit
(** Fault injection for the fuzzer's oracle tests only: silently discard
    every [every]-th incoming flush block (a lost device write).  The
    shadow-file oracle must catch the resulting divergence. *)

val always_coalesce : t -> unit
(** For the coalescing tests only: run every due same-(SN, op)
    coalescing pass, including those the server skips because no two
    touching cache extents carry an equal (SN, op).  A skipped pass is a
    no-op, so a server with this set must keep the same caches and stats
    as one without. *)

val io_resp_to_string : io_resp -> string
(** Short rendering for diagnostics: ["Done"], ["Data(4 segments)"]. *)
