type tag = { writer : int; op : int; sn : int }

let pp_tag ppf t =
  Format.fprintf ppf "w%d#%d@@sn%d" t.writer t.op t.sn

type t = tag Extent_map.t

let empty = Extent_map.empty
let write m iv tag = Extent_map.set m iv tag
let write_all = Extent_map.set_all
let truncate m off = snd (Extent_map.cut m (Interval.to_eof ~lo:off))

let write_if_newer m iv tag =
  Extent_map.merge m iv tag ~keep_new:(fun ~old -> tag.sn > old.sn)

let overlay_cached m iv tag =
  fst (Extent_map.merge m iv tag ~keep_new:(fun ~old -> tag.sn >= old.sn))

let read m iv =
  (* Walk the covered extents, inserting explicit holes. *)
  let covered = Extent_map.overlapping m iv in
  let out = ref [] in
  let push lo hi v = if lo < hi then out := (Interval.v ~lo ~hi, v) :: !out in
  let pos =
    List.fold_left
      (fun pos ((e : Interval.t), tag) ->
        push pos e.lo None;
        push e.lo e.hi (Some tag);
        e.hi)
      iv.Interval.lo covered
  in
  push pos iv.Interval.hi None;
  List.rev !out

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

let extent_count = Extent_map.cardinal
let pp ppf m = Extent_map.pp pp_tag ppf m
