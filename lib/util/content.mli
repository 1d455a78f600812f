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

type t

val empty : t
val write : t -> Interval.t -> tag -> t
(** Overwrite a range unconditionally (in-order application). *)

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

(** A device store: contents written in place, through an
    {!Extent_map.Transient} handle.  A block that lands in a gap adds
    one node to the nodes the store owns, where a persistent {!write}
    copies a root-to-leaf path. *)
module Store : sig
  type content := t
  type t

  val create : unit -> t
  (** An empty store. *)

  val write : t -> Interval.t -> tag -> unit
  (** {!Content.write} in place. *)

  val write_all : t -> tag Extent_map.t -> unit
  (** [write_all s m] writes every extent of [m], as successive {!write}s
      would.  When [s] holds nothing in [m]'s span it costs O(log n) and
      the store shares [m]'s nodes ({!Extent_map.Transient.set_all}). *)

  val truncate : t -> int -> unit
  (** [truncate s off] drops every byte at or past [off] ([off >= 0]):
      O(log n + k) for the k extents it drops ({!Extent_map.Transient.cut}). *)

  val read : t -> Interval.t -> (Interval.t * tag option) list
  (** {!Content.read} of the current contents. *)

  val freeze : t -> content
  (** The current contents, which later writes to the store leave as
      they are.  O(1). *)
end
