(** One backup replica of a lock server's grant log (DESIGN.md §16).

    A replica is a passive log store on its own node: the primary ships
    its log to it in batches over the fenced transport ({!Group}), and
    the replica applies a batch event by event, then acknowledges it
    once.  The primary has at most one Append in flight per backup, a
    retransmission or a duplicate resends the same batch, and a new
    regime restarts at lsn 1, so a batch never starts past the committed
    prefix + 1: the replica skips an lsn it has already committed,
    commits the next, and refuses a later one as a shipping fault.
    Probe/Fetch serve the election and the replay-based recovery.

    Epoch discipline: a batch stamped with a newer log epoch supersedes
    the whole log (the new primary re-seeds from lsn 1); a batch from an
    older epoch is acknowledged — so the dead regime's courier moves on
    — but never applied. *)

type msg =
  | Append of {
      a_epoch : int;  (** the shipping primary's log epoch *)
      a_first_lsn : int;  (** the lsn of [a_evs.(0)] *)
      a_evs : Seqdlm.Lock_server.repl_event array;
          (** consecutive entries, in lsn order *)
    }
  | Probe  (** election: report epoch / committed *)
  | Fetch  (** recovery: return the whole committed log *)

type resp =
  | Ack of {
      r_epoch : int;
      r_committed : int;  (** contiguous committed prefix *)
    }
  | Log of {
      l_evs : Seqdlm.Lock_server.repl_event array;
          (** the committed log; event [i] has lsn [i + 1] *)
    }

type t

val create :
  Dessim.Engine.t -> Netsim.Params.t -> node:Netsim.Node.t -> name:string ->
  id:int -> t
(** Registers the [<name>.repl] endpoint on [node].  Its handler raises
    [Invalid_argument] naming the endpoint, the lsn and the committed
    prefix when an Append of the current or a newer regime carries an
    lsn past the committed prefix + 1. *)

val endpoint : t -> (msg, resp) Netsim.Rpc.endpoint
val id : t -> int
val node : t -> Netsim.Node.t
val log : t -> Grant_log.t
val committed : t -> int
val epoch : t -> int
