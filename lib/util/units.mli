(** Byte-size constants and human-readable formatting for the experiment
    reports (bandwidths as GB/s like the paper's figures, times in
    seconds, sizes in KiB/MiB). *)

val kib : int
val mib : int
val gib : int

val page : int
(** 4 KiB — the minimal management unit of the PFS client cache and the
    alignment of lock ranges (paper §III-B2, §V-C2). *)

val bytes_to_string : int -> string
(** "64KiB", "1MiB", "47008B", ... *)

val bandwidth_to_string : float -> string
val seconds_to_string : float -> string
