open Netsim

type outcome = {
  el_backup : int; (* index into the group's backup array *)
  el_committed : int;
  el_live : int; (* backups that answered the probe *)
}

(* Probe every backup once over the fenced transport; a reply within
   [timeout] means live.  The winner holds the lexicographically
   greatest (log epoch, committed) — the newest regime's longest log —
   with ties broken by the lowest replica id, so every observer of the
   same probe results elects the same backup (deterministic election,
   no extra consensus round).  A backup's committed prefix is all it
   holds (it never buffers past it), so there is nothing to wait for. *)
let elect group ~src ~view ~timeout =
  let live =
    Array.to_list (Group.backups group)
    |> List.filter_map (fun b ->
           let ep = Replica.endpoint b in
           match
             Rpc.call_fenced ep ~src ~timeout
               ~epoch:(Rpc.View.epoch view (Rpc.name ep))
               ~req_id:(Rpc.View.fresh_req_id view)
               Replica.Probe
           with
           | Rpc.Reply (Replica.Ack { r_epoch; r_committed }, _) ->
               Some (Replica.id b, r_epoch, r_committed)
           | Rpc.Reply (Replica.Log _, _) | Rpc.Stale _ | Rpc.Timeout -> None)
  in
  let better (id, ep, c) (bid, bep, bc) =
    ep > bep || (ep = bep && (c > bc || (c = bc && id < bid)))
  in
  match live with
  | [] -> None
  | first :: rest ->
      let id, _, c =
        List.fold_left (fun b x -> if better x b then x else b) first rest
      in
      Some { el_backup = id; el_committed = c; el_live = List.length live }
