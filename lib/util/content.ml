type tag = { writer : int; op : int; sn : int }

type t = tag Extent_map.t

let empty = Extent_map.empty
let write m iv tag = Extent_map.set m iv tag

let write_if_newer m iv tag =
  Extent_map.merge m iv tag ~keep_new:(fun ~old -> tag.sn > old.sn)

let overlay_cached m iv tag =
  fst (Extent_map.merge m iv tag ~keep_new:(fun ~old -> tag.sn >= old.sn))

(* [covered], the extents over [iv] clipped to it, with explicit holes
   between them. *)
let with_holes covered (iv : Interval.t) =
  let out = ref [] in
  let push lo hi v = if lo < hi then out := (Interval.v ~lo ~hi, v) :: !out in
  let pos =
    List.fold_left
      (fun pos ((e : Interval.t), tag) ->
        push pos e.lo None;
        push e.lo e.hi (Some tag);
        e.hi)
      iv.lo covered
  in
  push pos iv.hi None;
  List.rev !out

let read m iv = with_holes (Extent_map.overlapping m iv) iv

let tag_equal a b = a.writer = b.writer && a.op = b.op && a.sn = b.sn
let normalize m = Extent_map.coalesce ~eq:tag_equal m

let equal a b =
  let la = Extent_map.to_list (normalize a)
  and lb = Extent_map.to_list (normalize b) in
  List.length la = List.length lb
  && List.for_all2
       (fun (ia, ta) (ib, tb) -> Interval.equal ia ib && tag_equal ta tb)
       la lb

let checksum m =
  Extent_map.fold
    (fun (iv : Interval.t) tag acc ->
      let mix acc x = (acc * 1_000_003) lxor x in
      List.fold_left mix acc [ iv.lo; iv.hi; tag.writer; tag.op; tag.sn ])
    (normalize m) 0x9e3779b9

let written_bytes = Extent_map.total_length

module Store = struct
  module T = Extent_map.Transient

  type t = tag T.t

  let create () = T.of_map Extent_map.empty
  let write = T.set
  let write_all = T.set_all
  let truncate s off = ignore (T.cut s (Interval.to_eof ~lo:off))
  let read s iv = with_holes (T.overlapping s iv) iv
  let freeze = T.freeze
end
