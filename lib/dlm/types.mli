(** Wire types of the lock protocol.

    A lock resource (one per file stripe in ccPFS) is identified by a
    [resource_id]; lock ids are unique per lock server, so a lock is
    globally identified by [(resource_id, lock_id)].

    A request normally carries a single byte range; DLM-datatype requests
    carry the full list of non-contiguous ranges of an IO (paper §V-A),
    which the server grants exactly, without range expanding. *)

type client_id = int
type resource_id = int

type request = {
  client : client_id;
  rid : resource_id;
  mode : Mode.t;
  ranges : Ccpfs_util.Interval.t list;
      (** sorted, pairwise disjoint; singleton unless datatype locking *)
}

type grant = {
  lock_id : int;
  rid : resource_id;
  client : client_id;
  mode : Mode.t;  (** possibly upgraded by automatic lock conversion *)
  ranges : Ccpfs_util.Interval.t list;  (** possibly expanded *)
  sn : int;
      (** the resource's sequence number at grant time; tags all data
          written under this lock *)
  state : Lcm.lock_state;
      (** [Canceling] means early revocation was piggybacked: use once,
          then cancel *)
  replaces : int list;
      (** lock ids of the holder's own locks merged into this grant by
          lock upgrading *)
}

(** The lock endpoint's reply.  [Stale_owner] is the bounce of the
    sharded namespace (DESIGN.md §15): the addressed server no longer
    owns the resource, and the client must install a shard map of at
    least [epoch] before retrying at the current owner. *)
type lock_reply = Granted of grant | Stale_owner of { epoch : int }

(** Server → client callbacks. *)
type server_msg = Revoke of { rid : resource_id; lock_id : int }

(** Client → server control messages (all one-way; the lock request /
    grant pair is the only call with a reply). *)
type ctl_msg =
  | Revoke_ack of { rid : resource_id; lock_id : int }
      (** the client switched the lock to CANCELING and will not reuse
          it; data flushing is still in flight *)
  | Downgrade of { rid : resource_id; lock_id : int; mode : Mode.t }
  | Release of { rid : resource_id; lock_id : int }

val ranges_hull : Ccpfs_util.Interval.t list -> Ccpfs_util.Interval.t
(** Bounding interval of a non-empty sorted range list. *)

val ranges_overlap :
  Ccpfs_util.Interval.t list -> Ccpfs_util.Interval.t list -> bool
(** Whether two range lists intersect.  Sorted disjoint lists (the shape
    [normalize_ranges] produces, and the invariant of all server-side
    lists) are compared with a linear merge scan; anything else is
    normalized first, so the answer does not depend on list order. *)

val normalize_ranges : Ccpfs_util.Interval.t list -> Ccpfs_util.Interval.t list
(** Sort and merge touching ranges. *)

val pp_request : Format.formatter -> request -> unit
val pp_grant : Format.formatter -> grant -> unit
