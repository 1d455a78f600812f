type t = { lo : int; hi : int }

let eof = max_int

let v ~lo ~hi =
  if lo < 0 then invalid_arg "Interval.v: negative lo";
  if hi <= lo then invalid_arg "Interval.v: hi <= lo";
  { lo; hi }

let of_len ~lo ~len = v ~lo ~hi:(lo + len)
let to_eof ~lo = v ~lo ~hi:eof
let length a = a.hi - a.lo
let overlaps a b = a.lo < b.hi && b.lo < a.hi
let touches a b = a.lo <= b.hi && b.lo <= a.hi
let contains a b = a.lo <= b.lo && b.hi <= a.hi
let mem a off = a.lo <= off && off < a.hi

let inter a b =
  let lo = max a.lo b.lo and hi = min a.hi b.hi in
  if lo < hi then Some { lo; hi } else None

let hull a b = { lo = min a.lo b.lo; hi = max a.hi b.hi }

let align ~page a =
  let lo = a.lo / page * page in
  let hi = if a.hi = eof then eof else (a.hi + page - 1) / page * page in
  { lo; hi }

let compare a b =
  match Int.compare a.lo b.lo with 0 -> Int.compare a.hi b.hi | c -> c

let equal a b = a.lo = b.lo && a.hi = b.hi

let pp ppf a =
  if a.hi = eof then Format.fprintf ppf "[%d, EOF)" a.lo
  else Format.fprintf ppf "[%d, %d)" a.lo a.hi

let to_string a = Format.asprintf "%a" pp a
