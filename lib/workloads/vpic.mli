(** The VPIC-IO / h5bench particle-write kernel (§V-E).

    Each of [nprocs] processes writes [particles] particles per
    iteration; a particle is 8 variables of 4 bytes.  Within one
    iteration each variable is a contiguous 1-D dataset of
    [nprocs · particles] elements, so rank r writes 8 contiguous
    segments of [particles · 4] bytes per iteration, at
    [base(iter, var) + r · particles · 4]. *)

val accesses :
  nprocs:int -> rank:int -> particles:int -> iterations:int -> Access.t list
(** In issue order (iteration-major, then variable). *)

val write_size : particles:int -> int
(** particles · 4 — 256 KiB at P = 65 536, 1 MiB at P = 262 144. *)

val total_bytes : nprocs:int -> particles:int -> iterations:int -> int
