let kib = 1024
let mib = 1024 * kib
let gib = 1024 * mib
let page = 4 * kib

let bytes_to_string n =
  if n >= gib && n mod gib = 0 then Printf.sprintf "%dGiB" (n / gib)
  else if n >= mib && n mod mib = 0 then Printf.sprintf "%dMiB" (n / mib)
  else if n >= kib && n mod kib = 0 then Printf.sprintf "%dKiB" (n / kib)
  else Printf.sprintf "%dB" n

let bandwidth_to_string b =
  if b >= 1e9 then Printf.sprintf "%.2fGB/s" (b /. 1e9)
  else if b >= 1e6 then Printf.sprintf "%.2fMB/s" (b /. 1e6)
  else if b >= 1e3 then Printf.sprintf "%.2fKB/s" (b /. 1e3)
  else Printf.sprintf "%.2fB/s" b

let seconds_to_string s =
  if s >= 1. then Printf.sprintf "%.2fs" s
  else if s >= 1e-3 then Printf.sprintf "%.2fms" (s *. 1e3)
  else Printf.sprintf "%.2fus" (s *. 1e6)
