open Ccpfs_util

type t = { stripe_size : int; stripe_count : int }

let v ?(stripe_size = Units.mib) ~stripe_count () =
  if stripe_size <= 0 || stripe_count <= 0 then
    invalid_arg "Layout.v: sizes must be positive";
  { stripe_size; stripe_count }

let max_stripes = 256
let rid ~fid ~stripe = (fid * max_stripes) + stripe
let rid_stripe r = r mod max_stripes

(* The object range of file bytes [lo, hi), all inside stripe-size
   chunk [chunk]. *)
let piece t ~chunk ~lo ~hi =
  let s = t.stripe_size in
  let obj_lo = (chunk / t.stripe_count * s) + (lo mod s) in
  Interval.v ~lo:obj_lo ~hi:(obj_lo + (hi - lo))

let chunks t ranges =
  let s = t.stripe_size in
  match ranges with
  | [] -> []
  | _ when t.stripe_count = 1 -> [ (0, Ranges.of_list ranges) ]
  | [ (iv : Interval.t) ] when iv.lo / s = (iv.hi - 1) / s ->
      (* Inside one chunk: one stripe, one object range. *)
      let chunk = iv.lo / s in
      [
        ( chunk mod t.stripe_count,
          Ranges.single (piece t ~chunk ~lo:iv.lo ~hi:iv.hi) );
      ]
  | _ ->
      let acc = Array.make t.stripe_count [] in
      List.iter
        (fun (iv : Interval.t) ->
          let pos = ref iv.lo in
          while !pos < iv.hi do
            let chunk = !pos / s in
            let hi = min iv.hi ((chunk + 1) * s) in
            let stripe = chunk mod t.stripe_count in
            acc.(stripe) <- piece t ~chunk ~lo:!pos ~hi :: acc.(stripe);
            pos := hi
          done)
        ranges;
      let out = ref [] in
      for stripe = t.stripe_count - 1 downto 0 do
        match acc.(stripe) with
        | [] -> ()
        | pieces -> out := (stripe, Ranges.of_list pieces) :: !out
      done;
      !out

let file_offset t ~stripe obj_off =
  if t.stripe_count = 1 then obj_off
  else
    let s = t.stripe_size in
    let row = obj_off / s in
    let within = obj_off mod s in
    (((row * t.stripe_count) + stripe) * s) + within
