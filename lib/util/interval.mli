(** Half-open byte intervals [lo, hi).

    Lock ranges, cached-data extents and data-server extent-cache entries
    are all intervals over file/stripe offsets.  [hi = eof] encodes the
    "expanded to end-of-file" ranges produced by the lock servers'
    range-expanding mechanism (the paper's [start, EOF]). *)

type t = private { lo : int; hi : int }

val eof : int
(** Sentinel for "end of file" used by expanded lock ranges. *)

val v : lo:int -> hi:int -> t
(** [v ~lo ~hi] is the interval [lo, hi).  Raises [Invalid_argument] if
    [lo < 0] or [hi <= lo]. *)

val of_len : lo:int -> len:int -> t
(** [of_len ~lo ~len] is [v ~lo ~hi:(lo + len)]. *)

val to_eof : lo:int -> t
(** [to_eof ~lo] is the interval [lo, eof). *)

val length : t -> int
(** Byte length; [length (to_eof ~lo)] is [eof - lo]. *)

val overlaps : t -> t -> bool
(** Non-empty intersection. *)

val touches : t -> t -> bool
(** Overlapping or adjacent (can be merged into one interval). *)

val contains : t -> t -> bool
(** [contains a b] iff [b] lies entirely within [a]. *)

val mem : t -> int -> bool
(** [mem a off] iff [lo <= off < hi]. *)

val inter : t -> t -> t option
(** Intersection, [None] if disjoint. *)

val hull : t -> t -> t
(** Smallest interval covering both. *)

val align : page:int -> t -> t
(** Expand to [page]-byte boundaries (lock servers align lock ranges to
    4 KiB pages, which is what makes adjacent unaligned writes conflict
    in the paper's Fig. 21 workload). *)

val compare : t -> t -> int
(** Order by [lo], then [hi]. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string
