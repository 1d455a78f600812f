(** One backup replica of a lock server's grant log (DESIGN.md §16).

    A replica is a passive log store on its own node: the primary ships
    its log to it in batches over the fenced transport ({!Group}), and
    the replica applies a batch entry by entry: it skips an entry it
    has already committed, commits the next lsn, and buffers an entry
    that sits past a hole (retransmissions and duplicates reorder
    freely) until the hole fills; then it acknowledges the batch once.
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
  | Probe  (** election: report epoch / committed / high-water *)
  | Fetch  (** recovery: return the whole committed log *)

type resp =
  | Ack of {
      r_epoch : int;
      r_committed : int;  (** contiguous committed prefix *)
      r_high : int;
          (** highest lsn seen (committed or buffered): committed <
              high means a known hole an in-flight retry will fill *)
    }
  | Log of { l_epoch : int; l_entries : Grant_log.entry list }

type t

val create :
  Dessim.Engine.t -> Netsim.Params.t -> node:Netsim.Node.t -> name:string ->
  id:int -> t
(** Registers the [<name>.repl] endpoint on [node]. *)

val endpoint : t -> (msg, resp) Netsim.Rpc.endpoint
val id : t -> int
val node : t -> Netsim.Node.t
val log : t -> Grant_log.t
val committed : t -> int
val epoch : t -> int
val high_water : t -> int
