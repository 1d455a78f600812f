type t = PR | NBW | BW | PW

let is_write = function NBW | BW | PW -> true | PR -> false
let can_read = function PR | PW -> true | NBW | BW -> false
let can_write = function NBW | BW | PW -> true | PR -> false

let severity = function NBW -> 0 | PR -> 1 | BW -> 1 | PW -> 2

let join a b =
  match (a, b) with
  | PW, _ | _, PW -> PW
  | PR, PR -> PR
  | PR, (NBW | BW) | (NBW | BW), PR -> PW
  | BW, (NBW | BW) | NBW, BW -> BW
  | NBW, NBW -> NBW

let subsumes ~cached ~wanted =
  match (wanted, cached) with
  | PR, (PR | PW) -> true
  | PR, (NBW | BW) -> false
  | NBW, (NBW | BW | PW) -> true
  | NBW, PR -> false
  | BW, (BW | PW) -> true
  | BW, (PR | NBW) -> false
  | PW, PW -> true
  | PW, (PR | NBW | BW) -> false

let equal a b = a = b
let to_string = function PR -> "PR" | NBW -> "NBW" | BW -> "BW" | PW -> "PW"
let pp ppf m = Format.pp_print_string ppf (to_string m)
