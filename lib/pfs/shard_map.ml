open Ccpfs_util

type t = {
  n_servers : int;
  mutable epoch : int;
  overrides : int Int_tbl.t; (* rid -> owner, when not the hash *)
}

let create ~n_servers =
  if n_servers <= 0 then invalid_arg "Shard_map.create: n_servers <= 0";
  { n_servers; epoch = 0; overrides = Int_tbl.create 8 }

let epoch t = t.epoch
let data_owner t rid = rid mod t.n_servers

let lock_owner t rid =
  match Int_tbl.find_opt t.overrides rid with
  | Some owner -> owner
  | None -> rid mod t.n_servers

let migrate t ~rid ~dst =
  if dst < 0 || dst >= t.n_servers then
    invalid_arg (Printf.sprintf "Shard_map.migrate: server %d out of range" dst);
  (* Back to the default placement: drop the override instead of pinning
     it, so the table only ever holds exceptions. *)
  if dst = rid mod t.n_servers then Int_tbl.remove t.overrides rid
  else Int_tbl.replace t.overrides rid dst;
  t.epoch <- t.epoch + 1;
  t.epoch

let fence t =
  (* Epoch bump with no placement change: the election fence.  Clients
     holding older cache epochs refresh on their next Stale_owner bounce;
     a stale primary's coordinator sees its own snapshots rejected. *)
  t.epoch <- t.epoch + 1;
  t.epoch

let overrides t = Int_tbl.bindings_sorted t.overrides

type snapshot = { s_epoch : int; s_overrides : (int * int) list }

let snapshot t = { s_epoch = t.epoch; s_overrides = overrides t }

module Cache = struct
  type t = {
    n_servers : int;
    mutable epoch : int;
    overrides : int Int_tbl.t;
  }

  let create ~n_servers = { n_servers; epoch = 0; overrides = Int_tbl.create 8 }
  let epoch t = t.epoch

  let owner t rid =
    match Int_tbl.find_opt t.overrides rid with
    | Some owner -> owner
    | None -> rid mod t.n_servers

  let install t (s : snapshot) =
    if s.s_epoch > t.epoch then begin
      t.epoch <- s.s_epoch;
      Int_tbl.reset t.overrides;
      List.iter (fun (rid, owner) -> Int_tbl.add t.overrides rid owner)
        s.s_overrides
    end
end
