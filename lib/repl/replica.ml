open Dessim
open Netsim

type msg =
  | Append of {
      a_epoch : int;
      a_first_lsn : int;
      a_evs : Seqdlm.Lock_server.repl_event array;
    }
  | Probe
  | Fetch

type resp =
  | Ack of { r_epoch : int; r_committed : int }
  | Log of { l_evs : Seqdlm.Lock_server.repl_event array }

type t = {
  id : int;
  node : Node.t;
  log : Grant_log.t; (* committed contiguous prefix *)
  mutable ep : (msg, resp) Rpc.endpoint option;
  applied : Obs.Metrics.counter;
}

let ack t =
  Ack
    { r_epoch = Grant_log.epoch t.log; r_committed = Grant_log.last_lsn t.log }

(* One shipped event.  A batch only ever starts at or below the
   committed prefix + 1: the primary has one Append in flight per
   backup, a retry or a duplicate resends the same batch, and a new
   regime restarts at lsn 1.  So an lsn already committed is skipped,
   the next one commits, and a later one is a shipping fault. *)
let accept t lsn ev =
  let last = Grant_log.last_lsn t.log in
  if lsn = last + 1 then begin
    ignore (Grant_log.append t.log ev);
    Obs.Metrics.incr t.applied
  end
  else if lsn > last then
    invalid_arg
      (Printf.sprintf
         "Replica.accept: backup %s got lsn %d past its committed prefix %d"
         (Rpc.name (Option.get t.ep))
         lsn last)

let handle t msg ~reply =
  match msg with
  | Probe -> reply (ack t)
  | Fetch -> reply (Log { l_evs = Grant_log.events_from t.log ~lsn:1 })
  | Append { a_epoch; a_first_lsn; a_evs } ->
      let lepoch = Grant_log.epoch t.log in
      if a_epoch < lepoch then
        (* A stale primary's courier: acknowledge (so its retry loop
           terminates) but apply nothing — the batch belongs to a
           fenced-off regime. *)
        reply (ack t)
      else begin
        if a_epoch > lepoch then
          (* First batch of a new regime: the old log is superseded
             wholesale (the new primary re-seeds from lsn 1). *)
          Grant_log.reset t.log ~epoch:a_epoch;
        Array.iteri (fun i ev -> accept t (a_first_lsn + i) ev) a_evs;
        reply (ack t)
      end

let create eng params ~node ~name ~id =
  let t =
    {
      id;
      node;
      log = Grant_log.create ();
      ep = None;
      applied = Obs.Metrics.counter (Engine.metrics eng) "repl.applied";
    }
  in
  t.ep <-
    Some
      (Rpc.endpoint eng params ~node ~name:(name ^ ".repl")
         ~handler:(fun msg ~reply -> handle t msg ~reply));
  t

let endpoint t = Option.get t.ep
let id t = t.id
let node t = t.node
let log t = t.log
let committed t = Grant_log.last_lsn t.log
let epoch t = Grant_log.epoch t.log
