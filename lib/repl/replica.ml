open Ccpfs_util
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
  | Ack of { r_epoch : int; r_committed : int; r_high : int }
  | Log of { l_epoch : int; l_entries : Grant_log.entry list }

type t = {
  id : int;
  node : Node.t;
  log : Grant_log.t; (* committed contiguous prefix *)
  pending : Seqdlm.Lock_server.repl_event Int_tbl.t;
      (* out-of-order arrivals beyond the committed prefix, by lsn *)
  mutable high : int; (* highest lsn buffered in this regime, else 0 *)
  mutable ep : (msg, resp) Rpc.endpoint option;
  applied : Obs.Metrics.counter;
}

(* Highest lsn this backup has seen for its current epoch, committed or
   buffered.  committed < high_water means the backup KNOWS it has a
   hole that an in-flight retry will eventually fill; the election loop
   waits those holes out.  Buffered lsns always exceed the committed
   prefix when they arrive, and the prefix only grows past them by
   draining them, so [high] never needs lowering within a regime. *)
let high_water t = max t.high (Grant_log.last_lsn t.log)

let ack t =
  Ack
    {
      r_epoch = Grant_log.epoch t.log;
      r_committed = Grant_log.last_lsn t.log;
      r_high = high_water t;
    }

let commit t ev =
  ignore (Grant_log.append t.log ev);
  Obs.Metrics.incr t.applied

(* One shipped entry: skip it if already committed; commit it at once
   when it is next and nothing is buffered (the common case); else
   buffer it until the hole before it fills. *)
let accept t lsn ev =
  let last = Grant_log.last_lsn t.log in
  if lsn > last then begin
    t.high <- max t.high lsn;
    if lsn = last + 1 && Int_tbl.length t.pending = 0 then commit t ev
    else Int_tbl.replace t.pending lsn ev
  end

(* Commit the contiguous prefix the buffer now extends. *)
let rec drain t =
  let next = Grant_log.last_lsn t.log + 1 in
  match Int_tbl.find_opt t.pending next with
  | Some ev ->
      Int_tbl.remove t.pending next;
      commit t ev;
      drain t
  | None -> ()

let handle t msg ~reply =
  match msg with
  | Probe -> reply (ack t)
  | Fetch ->
      reply
        (Log
           { l_epoch = Grant_log.epoch t.log;
             l_entries = Grant_log.entries t.log })
  | Append { a_epoch; a_first_lsn; a_evs } ->
      let lepoch = Grant_log.epoch t.log in
      if a_epoch < lepoch then
        (* A stale primary's courier: acknowledge (so its retry loop
           terminates) but apply nothing — the batch belongs to a
           fenced-off regime. *)
        reply (ack t)
      else begin
        if a_epoch > lepoch then begin
          (* First batch of a new regime: the old log is superseded
             wholesale (the new primary re-seeds from lsn 1). *)
          Grant_log.reset t.log ~epoch:a_epoch;
          Int_tbl.reset t.pending;
          t.high <- 0
        end;
        Array.iteri (fun i ev -> accept t (a_first_lsn + i) ev) a_evs;
        drain t;
        reply (ack t)
      end

let create eng params ~node ~name ~id =
  let t =
    {
      id;
      node;
      log = Grant_log.create ();
      pending = Int_tbl.create 16;
      high = 0;
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
