(** Abstract file / stripe contents.

    Simulated experiments move hundreds of gigabytes, so data payloads are
    not materialised as bytes.  A write is identified by its provenance —
    (writer id, per-writer op counter, sequence number) — and contents are
    interval maps from byte ranges to provenance.  Two contents are equal
    iff a real byte store written the same way would be equal, and a
    checksum lets the data-safety experiments compare replicas exactly as
    the paper compares checksums (§V-B1). *)

type tag = { writer : int; op : int; sn : int }
(** Provenance of a block of written data.  [sn] is the sequence number of
    the lock the write was performed under. *)

val pp_tag : Format.formatter -> tag -> unit

type t

val empty : t
val write : t -> Interval.t -> tag -> t
(** Overwrite a range unconditionally (in-order application). *)

val write_all : t -> tag Extent_map.t -> t
(** [write_all c m] writes every extent of [m], as successive {!write}s
    would.  When [c] holds nothing in [m]'s span it costs O(log n) and
    the result shares [m]'s nodes ({!Extent_map.set_all}). *)

val truncate : t -> int -> t
(** [truncate c off] drops every byte at or past [off] ([off >= 0]):
    O(log n + k) for the k extents it drops ({!Extent_map.cut}). *)

val write_if_newer : t -> Interval.t -> tag -> t * Interval.t list
(** Apply a possibly out-of-order flush: the new data only lands where its
    [sn] is strictly greater than what is present.  Returns the update
    set. *)

val overlay_cached : t -> Interval.t -> tag -> t
(** Overlay a client-cache extent over (already flushed) base data: the
    cached data wins where its [sn] is greater {e or equal} — an equal SN
    means the same lock, whose freshest bytes live in the cache. *)

val read : t -> Interval.t -> (Interval.t * tag option) list
(** Contents over a range; [None] marks never-written (hole) bytes. *)

val equal : t -> t -> bool
(** Equality up to extent fragmentation. *)

val checksum : t -> int
(** Stable across fragmentation; equal contents have equal checksums. *)

val written_bytes : t -> int
val extent_count : t -> int
val pp : Format.formatter -> t -> unit
