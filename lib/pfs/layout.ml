open Ccpfs_util

type t = { stripe_size : int; stripe_count : int }

let v ?(stripe_size = Units.mib) ~stripe_count () =
  if stripe_size <= 0 || stripe_count <= 0 then
    invalid_arg "Layout.v: sizes must be positive";
  { stripe_size; stripe_count }

let max_stripes = 256
let rid ~fid ~stripe = (fid * max_stripes) + stripe
let rid_stripe r = r mod max_stripes

let chunks t (iv : Interval.t) =
  if t.stripe_count = 1 then [ (0, iv) ]
  else begin
    let acc = Array.make t.stripe_count [] in
    let s = t.stripe_size in
    let pos = ref iv.lo in
    while !pos < iv.hi do
      let chunk = !pos / s in
      let chunk_end = (chunk + 1) * s in
      let hi = min iv.hi chunk_end in
      let stripe = chunk mod t.stripe_count in
      let obj_lo = (chunk / t.stripe_count * s) + (!pos mod s) in
      let obj = Interval.v ~lo:obj_lo ~hi:(obj_lo + (hi - !pos)) in
      acc.(stripe) <- obj :: acc.(stripe);
      pos := hi
    done;
    let out = ref [] in
    for stripe = t.stripe_count - 1 downto 0 do
      match Seqdlm.Types.normalize_ranges acc.(stripe) with
      | [] -> ()
      | ranges ->
          (* One lock/flush range per stripe: take the covering hull so a
             strided write holds a single extent lock per stripe, as in
             §V-D ("a lock with a minimum range covering all of the
             non-contiguous writes for each stripe"). *)
          List.iter (fun r -> out := (stripe, r) :: !out) ranges
    done;
    !out
  end

let file_offset t ~stripe obj_off =
  if t.stripe_count = 1 then obj_off
  else
    let s = t.stripe_size in
    let row = obj_off / s in
    let within = obj_off mod s in
    (((row * t.stripe_count) + stripe) * s) + within
