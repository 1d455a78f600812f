(* Samples live in a doubling unboxed float array: one word each, where
   a list cell and a boxed float took five. *)
type t = {
  mutable samples : float array;
  mutable n : int;
  mutable sum : float;
  mutable mn : float;
  mutable mx : float;
  mutable sorted : float array option;
}

let create () =
  { samples = [||]; n = 0; sum = 0.; mn = infinity;
    mx = neg_infinity; sorted = None }

let add t x =
  if t.n = Array.length t.samples then begin
    let grown = Array.make (Stdlib.max 16 (2 * t.n)) 0. in
    Array.blit t.samples 0 grown 0 t.n;
    t.samples <- grown
  end;
  t.samples.(t.n) <- x;
  t.n <- t.n + 1;
  t.sum <- t.sum +. x;
  if x < t.mn then t.mn <- x;
  if x > t.mx then t.mx <- x;
  t.sorted <- None

let count t = t.n
let mean t = if t.n = 0 then 0. else t.sum /. float_of_int t.n
let min t = if t.n = 0 then 0. else t.mn
let max t = if t.n = 0 then 0. else t.mx

let sorted t =
  match t.sorted with
  | Some a -> a
  | None ->
      let a = Array.sub t.samples 0 t.n in
      Array.sort Float.compare a;
      t.sorted <- Some a;
      a

(* Nearest-rank: the smallest index i with (i+1)/n >= p/100.  The rank
   is computed with a tolerance because [p /. 100. *. n] is not exact in
   binary floating point — e.g. 7. /. 100. *. 300. = 21.000000000000004,
   whose bare [ceil] lands one sample too high.  The tolerance (absolute
   + relative) is far below the 1/n spacing between genuine ranks, so it
   can only undo float noise, never skip a rank. *)
let percentile t p =
  if t.n = 0 then 0.
  else
    let a = sorted t in
    let p = Float.max 0. (Float.min 100. p) in
    let x = p /. 100. *. float_of_int t.n in
    let rank = int_of_float (ceil (x -. (1e-9 +. (1e-12 *. x)))) - 1 in
    a.(Stdlib.max 0 (Stdlib.min (t.n - 1) rank))
