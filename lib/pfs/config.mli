(** ccPFS tunables, defaulted to the paper's configuration (§IV-C, §V).
    {!default} is a constant: no field reads the environment, so a
    cluster's configuration is exactly what its caller passes. *)

type t = {
  page : int;  (** cache / lock alignment unit, 4 KiB *)
  dirty_min : int;
      (** dirty bytes at which the client daemon starts voluntary
          flushing (256 MiB) *)
  dirty_max : int;
      (** dirty bytes at which writers block until space frees (4 GiB) *)
  flush_period : float;  (** client flush-daemon polling period, seconds *)
  extent_cache_limit : int;
      (** data-server extent-cache entries that trigger cleanup (256 K) *)
  cleanup_batch : int;  (** entries examined per cleanup round (1 024) *)
  cleanup_period : float;  (** cleanup-task polling period, seconds *)
  extent_log : bool;  (** keep the per-stripe extent log for recovery *)
  flush_wire_page_only : bool;
      (** Fig. 5's "first page only" hack: flush RPCs put at most one
          4 KiB page on the wire regardless of payload (timing knob; the
          logical data still lands) *)
  replication : int;
      (** grant-log replication factor (DESIGN.md §16): 0 = off;
          [f >= 1] gives every lock server [f] backup replicas and the
          replay-based recovery path.  Off by default: recovery
          gathers the clients' cached grants (§IV-C2). *)
}

val default : t

val with_dirty_limits : dirty_min:int -> dirty_max:int -> t -> t
val with_extent_cache : limit:int -> t -> t
val with_extent_log : bool -> t -> t
val with_flush_wire_page_only : bool -> t -> t

val with_batching : k:int -> t -> t
(** [with_batching ~k t] is [t] for [k <= 1] and raises
    [Invalid_argument] otherwise: RPC batching was removed (DESIGN.md
    §13).  Its only caller is [bench/suite], which pins [k = 0]; it goes
    in the next change to the benchmark. *)

val with_replication : int -> t -> t
(** Set the grant-log replication factor; raises [Invalid_argument] on a
    negative factor. *)
