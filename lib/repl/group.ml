open Dessim
open Netsim

type t = {
  eng : Engine.t;
  params : Params.t;
  name : string; (* the primary lock server's name, e.g. "ls0" *)
  src : Node.t; (* the primary's node: appends ship from here *)
  log : Grant_log.t; (* the primary's in-memory log *)
  view : Rpc.View.t; (* the primary's epoch/req-id view for shipping *)
  backups : Replica.t array;
  reliability : Rpc.reliability option;
  shipped : Obs.Metrics.counter;
}

let create eng params ~name ~src ~backups ?reliability ~salt () =
  {
    eng;
    params;
    name;
    src;
    log = Grant_log.create ();
    view = Rpc.View.create ~salt ();
    backups;
    reliability;
    shipped = Obs.Metrics.counter (Engine.metrics eng) "repl.shipped";
  }

let engine t = t.eng
let log t = t.log
let backups t = t.backups
let f t = Array.length t.backups
let name t = t.name

(* Ship one committed entry to every backup: one reliable fire-and-forget
   courier per copy (bounded-lag replication — the grant reply does not
   wait for the acks; the couriers retry until each backup acknowledges).
   The entry's log epoch fences it: a backup that has moved to a newer
   regime acknowledges without applying, terminating the orphan. *)
let ship t ~lsn ev =
  let epoch = Grant_log.epoch t.log in
  let bytes = Grant_log.event_bytes ev in
  Array.iter
    (fun b ->
      Obs.Metrics.incr t.shipped;
      Rpc.send_reliable (Replica.endpoint b) ~src:t.src ~req_bytes:bytes
        ?reliability:t.reliability ~view:t.view
        (Replica.Append { a_epoch = epoch; a_lsn = lsn; a_ev = ev }))
    t.backups

let append t ev = ship t ~lsn:(Grant_log.append t.log ev) ev

let attach t ls = Seqdlm.Lock_server.set_repl_hook ls (fun ev -> append t ev)

let reset t ~epoch = Grant_log.reset t.log ~epoch

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
