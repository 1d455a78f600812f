(* The prescribed D001 fix: an int-keyed table and its sorted-key
   traversal ([Int_tbl.fold_sorted]).  Must produce no findings. *)

let group_by_stripe pairs =
  let tbl = Ccpfs_util.Int_tbl.create 8 in
  List.iter
    (fun (stripe, iv) ->
      let cur =
        Option.value ~default:[] (Ccpfs_util.Int_tbl.find_opt tbl stripe)
      in
      Ccpfs_util.Int_tbl.replace tbl stripe (iv :: cur))
    pairs;
  Ccpfs_util.Int_tbl.fold_sorted
    (fun stripe ivs acc -> (stripe, List.rev ivs) :: acc)
    tbl []
  |> List.rev

(* Order-free table operations are fine without any ceremony. *)
let lookup tbl k = Hashtbl.find_opt tbl k
let count tbl = Hashtbl.length tbl
let int_lookup tbl k = Ccpfs_util.Int_tbl.find_opt tbl k
