(* Planted D001: the exact shape of the PR 4 regression — a raw
   [Hashtbl.fold] whose traversal order leaks into the returned list
   (the pre-fix [Client.group_by_stripe]).  The lint must flag both the
   fold and the iter below, and the raw [Int_tbl.fold] at the end: the
   int-keyed tables visit buckets in an order that depends on their
   size history just as [Hashtbl]'s do. *)

let group_by_stripe pairs =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (stripe, iv) ->
      let cur = Option.value ~default:[] (Hashtbl.find_opt tbl stripe) in
      Hashtbl.replace tbl stripe (iv :: cur))
    pairs;
  Hashtbl.fold (fun stripe ivs acc -> (stripe, List.rev ivs) :: acc) tbl []

let emit_all tbl out = Hashtbl.iter (fun k v -> out := (k, v) :: !out) tbl

let stripes_of (tbl : _ Ccpfs_util.Int_tbl.t) =
  Ccpfs_util.Int_tbl.fold (fun stripe _ acc -> stripe :: acc) tbl []
