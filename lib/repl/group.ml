open Dessim
open Netsim

(* What the shipping path knows of one backup: the last lsn handed to
   the wire, and whether its courier is running (an Append in flight). *)
type cursor = { mutable sent : int; mutable busy : bool }

type t = {
  eng : Engine.t;
  name : string; (* the primary lock server's name, e.g. "ls0" *)
  src : Node.t; (* the primary's node: appends ship from here *)
  log : Grant_log.t; (* the primary's in-memory log *)
  view : Rpc.View.t; (* the primary's epoch/req-id view for shipping *)
  backups : Replica.t array;
  cursors : cursor array; (* one per backup *)
  reliability : Rpc.reliability option;
  shipped : Obs.Metrics.counter;
}

let create eng ~name ~src ~backups ?reliability ~salt () =
  {
    eng;
    name;
    src;
    log = Grant_log.create ();
    view = Rpc.View.create ~salt ();
    backups;
    cursors = Array.map (fun _ -> { sent = 0; busy = false }) backups;
    reliability;
    shipped = Obs.Metrics.counter (Engine.metrics eng) "repl.shipped";
  }

let engine t = t.eng
let log t = t.log
let backups t = t.backups
let f t = Array.length t.backups
let name t = t.name

(* The next Append for backup [i]: the log suffix past its cursor, or
   [None] (its courier ends) when the backup has been handed everything.
   Asked when the courier starts and again at each ack, so the batch
   holds whatever was appended during the previous round trip.  The
   batch's log epoch fences it: a backup that has moved to a newer
   regime acknowledges without applying, and the courier moves on. *)
let next t i () =
  let c = t.cursors.(i) in
  let last = Grant_log.last_lsn t.log in
  if c.sent = last then begin
    c.busy <- false;
    None
  end
  else begin
    let first = c.sent + 1 in
    let evs = Grant_log.events_from t.log ~lsn:first in
    let msg =
      Replica.Append
        { a_epoch = Grant_log.epoch t.log; a_first_lsn = first; a_evs = evs }
    in
    c.sent <- last;
    Obs.Metrics.add t.shipped (Array.length evs);
    let bytes = Array.fold_left (fun n ev -> n + Grant_log.event_bytes ev) 0 evs in
    Some (msg, bytes)
  end

(* Log the entry, and start the courier of every backup that has none
   running (bounded-lag replication: the grant reply does not wait for
   the acks).  A running courier picks the entry up at its next ack. *)
let append t ev =
  ignore (Grant_log.append t.log ev);
  Array.iteri
    (fun i c ->
      if not c.busy then begin
        c.busy <- true;
        Rpc.stream_reliable (Replica.endpoint t.backups.(i)) ~src:t.src
          ?reliability:t.reliability ~view:t.view (next t i)
      end)
    t.cursors

let attach t ls = Seqdlm.Lock_server.set_repl_hook ls (fun ev -> append t ev)

(* A running courier finishes its in-flight Append of the old regime,
   then ships the new one from lsn 1. *)
let reset t ~epoch =
  Grant_log.reset t.log ~epoch;
  Array.iter (fun c -> c.sent <- 0) t.cursors

(* Lag diagnostics for experiments: entries appended by the primary that
   the slowest backup has not committed yet. *)
let max_lag t =
  Array.fold_left
    (fun acc b ->
      let lag =
        if Replica.epoch b = Grant_log.epoch t.log then
          Grant_log.last_lsn t.log - Replica.committed b
        else Grant_log.last_lsn t.log
      in
      max acc lag)
    0 t.backups
