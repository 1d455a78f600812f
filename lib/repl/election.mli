(** Deterministic leader election over a replication group's backups
    (DESIGN.md §16).

    Triggered by the failure detector's declare: probe every backup over
    the fenced transport and elect the authoritative log to replay — the
    lexicographically greatest (log epoch, committed lsn), ties broken
    by the lowest replica id.  The rule is a pure function of the probe
    results, so any observer elects the same backup without a further
    consensus round; the subsequent membership-epoch bump (fenced
    through the shard map and the lock/ctl/data endpoints) is what makes
    the choice binding — stragglers of the old regime get [Stale] /
    [Stale_owner] rejections.

    Each backup is probed once.  A backup holds exactly its committed
    prefix (it refuses, never buffers, an event past it), so no answer
    reports a hole that a retry is about to fill, and there is nothing
    to re-probe for. *)

type outcome = {
  el_backup : int;  (** elected replica id (index into the backup array) *)
  el_committed : int;  (** entries available for replay *)
  el_live : int;  (** backups that answered the probe *)
}

val elect :
  Group.t -> src:Netsim.Node.t -> view:Netsim.Rpc.View.t -> timeout:float ->
  outcome option
(** [None] = no backup answered (total replica loss): the caller must
    fall back to the client gather.  Runs in the calling process and
    costs at most [backups × timeout]. *)
