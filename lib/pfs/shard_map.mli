(** The epoch-versioned lock-namespace routing table (DESIGN.md §15).

    One authoritative map per cluster answers "which server owns resource
    [rid]'s lock namespace?".  Placement starts as the static hash
    [rid mod n_servers] (§IV); {!migrate} moves a single resource to
    another server and bumps the map {e epoch} — the fencing token the
    [Stale_owner] protocol carries, so a client routing on an older map
    version can always be detected and told to refresh.

    Data placement never moves: a stripe's blocks and extent log stay on
    [rid mod n_servers] forever ({!data_owner}), exactly as Lustre keeps
    object placement fixed while lock namespaces migrate between
    servers.  Only the DLM service for the resource is rehomed.

    Clients do not read the authoritative map directly — they hold a
    {!Cache} refreshed from {!snapshot}s served over RPC, and learn about
    staleness from [Stale_owner] bounces. *)

type t

val create : n_servers:int -> t
(** Identity placement [rid mod n_servers], epoch 0. *)

val epoch : t -> int
(** Bumped by every {!migrate}; never decreases. *)

val lock_owner : t -> int -> int
(** Current owner of resource [rid]'s lock namespace. *)

val data_owner : t -> int -> int
(** Owner of the stripe's device contents and extent log — always the
    static hash, migrations notwithstanding. *)

val migrate : t -> rid:int -> dst:int -> int
(** Rehome [rid]'s lock namespace to server [dst] and return the new
    epoch.  Raises [Invalid_argument] if [dst] is out of range. *)

val fence : t -> int
(** Bump the epoch without changing placement and return it — the
    election fence of a replicated recovery (DESIGN.md §16): post-bump,
    stragglers routing on the old regime's epoch are detectably stale. *)

val overrides : t -> (int * int) list
(** The non-default placements, sorted by rid (diagnostics). *)

(** A wire-friendly copy of the whole map at one epoch. *)
type snapshot = {
  s_epoch : int;
  s_n_servers : int;
  s_overrides : (int * int) list;  (** (rid, owner), sorted by rid *)
}

val snapshot : t -> snapshot

(** The client-side replica: routed on by every acquire, refreshed from
    the map service when a server bounces a request.  Installs are
    forward-only — a snapshot older than what the cache already has is
    ignored, so replies racing a refresh cannot roll routing back. *)
module Cache : sig
  type t

  val create : n_servers:int -> t
  val epoch : t -> int
  val owner : t -> int -> int
  val install : t -> snapshot -> unit
end
