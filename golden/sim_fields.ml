(* Reads one `suite.exe rep` JSON line on stdin and prints its
   simulated half as `field value` lines, so a diff against a golden
   names the field that moved.  Host-time fields are dropped by the
   explicit list below; everything else is kept.  Floats print with 17
   significant digits, which is exact for a double. *)

module J = Obs.Json

let host_top =
  [ "setup_s"; "host_s"; "heap_peak_mb"; "minor_words"; "major_collections" ]

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let dropped path =
  List.mem path host_top || String.starts_with ~prefix:"layers.gc." path
  || (String.starts_with ~prefix:"layers." path && contains path "host")

let rec emit path = function
  | J.Obj fields ->
      List.iter
        (fun (k, v) -> emit (if path = "" then k else path ^ "." ^ k) v)
        fields
  | _ when dropped path -> ()
  | J.Int i -> Printf.printf "%s %d\n" path i
  | J.Float f -> Printf.printf "%s %.17g\n" path f
  | v -> Printf.printf "%s %s\n" path (J.to_string v)

let () = emit "" (J.parse_exn (In_channel.input_all stdin))
