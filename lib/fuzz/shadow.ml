open Ccpfs_util

type entry = { writer : int; op : int; sn : int }

exception Divergence of string

type t = {
  layout : Ccpfs.Layout.t;
  mutable data : entry option array;  (* indexed by file offset *)
  mutable cap : int;  (* 1 + highest file offset ever written *)
}

let create ~layout = { layout; data = Array.make 4096 None; cap = 0 }

let ensure t hi =
  if hi > Array.length t.data then begin
    let n = ref (Array.length t.data) in
    while !n < hi do
      n := !n * 2
    done;
    let a = Array.make !n None in
    Array.blit t.data 0 a 0 (Array.length t.data);
    t.data <- a
  end

(* The data servers' merge rule: SN orders conflicting locks, the
   writer's op counter orders successive writes under one cached lock. *)
let newer (a : entry) (b : entry) = a.sn > b.sn || (a.sn = b.sn && a.op > b.op)

let record_write t ~writer ~rid ~range ~sn ~op =
  let stripe = Ccpfs.Layout.rid_stripe rid in
  let e = { writer; op; sn } in
  let lo = range.Interval.lo and hi = range.Interval.hi in
  if hi > lo then begin
    (* Object offsets map to file offsets monotonically within a stripe;
       the last byte gives the high-water mark. *)
    ensure t (Ccpfs.Layout.file_offset t.layout ~stripe (hi - 1) + 1);
    for o = lo to hi - 1 do
      let f = Ccpfs.Layout.file_offset t.layout ~stripe o in
      if f + 1 > t.cap then t.cap <- f + 1;
      match t.data.(f) with
      | Some cur when not (newer e cur) -> ()
      | _ -> t.data.(f) <- Some e
    done
  end

let record_truncate t ~size =
  for f = max 0 size to t.cap - 1 do
    t.data.(f) <- None
  done

let describe = function
  | None -> "hole"
  | Some e -> Printf.sprintf "writer %d op %d sn %d" e.writer e.op e.sn

let check_against t cl file =
  let layout = t.layout in
  let obj_cap = max t.cap 1 in
  for stripe = 0 to layout.Ccpfs.Layout.stripe_count - 1 do
    let contents = Ccpfs.Cluster.stripe_contents cl file ~stripe in
    List.iter
      (fun ((iv : Interval.t), tag) ->
        let actual =
          Option.map
            (fun (g : Content.tag) -> { writer = g.writer; op = g.op; sn = g.sn })
            tag
        in
        for o = iv.lo to iv.hi - 1 do
          let f = Ccpfs.Layout.file_offset layout ~stripe o in
          let expected = if f < t.cap then t.data.(f) else None in
          if expected <> actual then
            raise
              (Divergence
                 (Printf.sprintf
                    "file offset %d (stripe %d, object offset %d): device \
                     has %s, shadow file has %s"
                    f stripe o (describe actual) (describe expected)))
        done)
      (* Object offsets never exceed their file offsets, so [0, cap)
         in object space covers everything the journal can explain —
         and everything beyond it must be a hole. *)
      (Content.read contents (Interval.v ~lo:0 ~hi:obj_cap))
  done
