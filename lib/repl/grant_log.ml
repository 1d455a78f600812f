module Ls = Seqdlm.Lock_server
module Int_map = Map.Make (Int)

type entry = { lsn : int; ev : Ls.repl_event }

(* Event [lsn] sits in slot [lsn - 1]; the slots from [len] on hold
   [vacant].  Entries are not boxed: the lsn is the index, and a backup
   stores the very event value its primary shipped, so one replicated
   entry costs a slot in each log and one shared event. *)
type t = {
  mutable epoch : int;
  mutable evs : Ls.repl_event array;
  mutable len : int; (* lsns are contiguous from 1 *)
}

let vacant = Ls.R_drop_resource { e_rid = -1 }
let create ?(epoch = 0) () = { epoch; evs = [||]; len = 0 }
let epoch t = t.epoch
let last_lsn t = t.len
let length t = t.len

let push t ev =
  if t.len = Array.length t.evs then begin
    let evs = Array.make (max 16 (2 * t.len)) vacant in
    Array.blit t.evs 0 evs 0 t.len;
    t.evs <- evs
  end;
  t.evs.(t.len) <- ev;
  t.len <- t.len + 1

let append t ev =
  push t ev;
  t.len

let append_entry t (e : entry) =
  if e.lsn <> t.len + 1 then
    invalid_arg
      (Printf.sprintf "Grant_log.append_entry: lsn %d, expected %d" e.lsn
         (t.len + 1));
  push t e.ev

let entries t =
  let acc = ref [] in
  for i = t.len downto 1 do
    acc := { lsn = i; ev = t.evs.(i - 1) } :: !acc
  done;
  !acc

let events_from t ~lsn =
  let lo = max 1 lsn in
  if lo > t.len then [||] else Array.sub t.evs (lo - 1) (t.len - lo + 1)

let reset t ~epoch =
  t.epoch <- epoch;
  t.evs <- [||];
  t.len <- 0

(* Wire size of one shipped entry: a conservative per-field estimate used
   to charge the transport for appends and log fetches (an R_lock entry
   carries its range list; the others are a few ints). *)
let event_bytes = function
  | Ls.R_lock l ->
      48 + (16 * List.length (l.ranges :> Ccpfs_util.Interval.t list))
  | Ls.R_drop _ | Ls.R_sn _ | Ls.R_drop_resource _ -> 24

let bytes t =
  let n = ref 0 in
  for i = 0 to t.len - 1 do
    n := !n + event_bytes t.evs.(i)
  done;
  !n

(* ------------------------------------------------------------------ *)
(* Replay: materialize the lock-table snapshot a log prefix describes   *)
(* ------------------------------------------------------------------ *)

type snap_resource = {
  sr_locks : Seqdlm.Types.lock list; (* ascending lock id *)
  sr_next_sn : int; (* sequencer floor: highest R_sn seen, else 1 *)
}

type snapshot = (Seqdlm.Types.resource_id * snap_resource) list

let materialize (es : entry list) : snapshot =
  let step acc { ev; _ } =
    match ev with
    | Ls.R_lock { rid; lock_id; client; mode; ranges; sn; state } ->
        let locks, floor =
          match Int_map.find_opt rid acc with
          | Some v -> v
          | None -> (Int_map.empty, 1)
        in
        let lock : Seqdlm.Types.lock =
          { rid; lock_id; client; mode; ranges; sn; state }
        in
        Int_map.add rid (Int_map.add lock_id lock locks, floor) acc
    | Ls.R_drop d -> (
        match Int_map.find_opt d.e_rid acc with
        | None -> acc
        | Some (locks, sn) ->
            Int_map.add d.e_rid (Int_map.remove d.e_lock_id locks, sn) acc)
    | Ls.R_sn s ->
        let locks, sn =
          match Int_map.find_opt s.e_rid acc with
          | Some v -> v
          | None -> (Int_map.empty, 1)
        in
        Int_map.add s.e_rid (locks, max sn s.e_next_sn) acc
    | Ls.R_drop_resource d -> Int_map.remove d.e_rid acc
  in
  let res = List.fold_left step Int_map.empty es in
  List.map
    (fun (rid, (locks, sn)) ->
      (rid, { sr_locks = List.map snd (Int_map.bindings locks); sr_next_sn = sn }))
    (Int_map.bindings res)
