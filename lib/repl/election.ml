open Dessim
open Netsim

type outcome = {
  el_backup : int; (* index into the group's backup array *)
  el_committed : int;
  el_live : int; (* backups that answered the probe *)
  el_rounds : int; (* probe rounds run (re-probes wait out known holes) *)
}

(* Probe every backup over the fenced transport; a reply within [timeout]
   means live.  The winner holds the lexicographically greatest
   (log epoch, committed) — the newest regime's longest log — with ties
   broken by the lowest replica id, so every observer of the same probe
   results elects the same backup (deterministic election, no extra
   consensus round).

   A live backup whose committed prefix stops short of its high-water
   mark has a KNOWN hole: an in-flight retry courier will fill it.  One
   such backup forces a bounded re-probe round rather than electing a
   log that is about to grow. *)
let elect group ~src ~view ~timeout =
  let backups = Group.backups group in
  let probe () =
    Array.to_list backups
    |> List.filter_map (fun b ->
           let ep = Replica.endpoint b in
           match
             Rpc.call_fenced ep ~src ~timeout
               ~epoch:(Rpc.View.epoch view (Rpc.name ep))
               ~req_id:(Rpc.View.fresh_req_id view)
               Replica.Probe
           with
           | Rpc.Reply (Replica.Ack { r_epoch; r_committed; r_high }, _) ->
               Some (Replica.id b, r_epoch, r_committed, r_high)
           | Rpc.Reply (Replica.Log _, _) | Rpc.Stale _ | Rpc.Timeout -> None)
  in
  let max_rounds = 8 in
  let rec go round =
    let live = probe () in
    let holes =
      List.exists (fun (_, _, committed, high) -> committed < high) live
    in
    if holes && round < max_rounds then begin
      (* Known holes fill within a retry period; wait one out. *)
      Engine.sleep (Group.engine group) timeout;
      go (round + 1)
    end
    else
      match live with
      | [] -> None
      | _ :: _ ->
          let best =
            List.fold_left
              (fun acc (id, ep, c, _) ->
                match acc with
                | None -> Some (id, ep, c)
                | Some (bid, bep, bc) ->
                    if
                      ep > bep
                      || (ep = bep && (c > bc || (c = bc && id < bid)))
                    then Some (id, ep, c)
                    else acc)
              None live
          in
          (match best with
          | Some (id, _, c) ->
              Some
                {
                  el_backup = id;
                  el_committed = c;
                  el_live = List.length live;
                  el_rounds = round;
                }
          | None -> None)
  in
  go 1
