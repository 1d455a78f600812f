(** Wait-for-graph deadlock analysis.

    When a simulation stalls, [Dessim.Engine] can only say which
    processes are blocked.  This module reconstructs {e why} from the
    lock servers' state at quiescence: an edge [c1 -> c2] means client
    [c1] has a queued request that conflicts with a lock client [c2]
    holds, and a cycle among the edges is a lock-order deadlock (e.g. the
    BW multi-resource atomic-write ordering violations of §III-B1).
    An edge holds the two server views it was read from, unchanged. *)

open Dessim
open Seqdlm

type edge = {
  waiter : Lock_server.waiter_view;
      (** the queued request; its [q_eff_mode] (post-conversion) is
          what conflicts *)
  held : Types.lock;  (** the granted lock it waits on *)
}

type report = {
  edges : edge list;
  cycles : Types.client_id list list;
      (** each cycle rotated to start at its smallest client id *)
  blocked : Engine.blocked_proc list;
}

exception Deadlock_found of report

val analyze :
  servers:Lock_server.t list -> blocked:Engine.blocked_proc list -> report

val find_cycles : edge list -> Types.client_id list list
(** The cycle enumeration [analyze] runs on its edge set: every directed
    cycle in the wait-for graph, each rotated to start at its smallest
    client id, in a deterministic order.  Exposed so the determinism
    regression tests can drive it on synthetic graphs. *)

val to_string : report -> string
