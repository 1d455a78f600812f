(** File striping (Lustre-style round-robin layout).

    A file with [stripe_count] stripes of [stripe_size] bytes maps file
    offset [b] to stripe [(b / stripe_size) mod stripe_count] at object
    offset [(b / (stripe_size * stripe_count)) * stripe_size
    + b mod stripe_size].  Each stripe is one object on one data server
    and is associated with one lock resource of the same id (§IV); lock
    ranges and cached-data extents are kept in object space. *)

type t = { stripe_size : int; stripe_count : int }

val v : ?stripe_size:int -> stripe_count:int -> unit -> t
(** Default stripe size 1 MiB (the evaluation's configuration). *)

val chunks :
  t -> Ccpfs_util.Interval.t list -> (int * Ccpfs_util.Ranges.t) list
(** Decompose file ranges (in any order, overlapping or not) into object
    ranges grouped per stripe: each stripe the ranges touch, in
    increasing stripe order, with its object ranges as one range set.  A
    single range confined to one stripe-size chunk yields one stripe and
    one range without building the grouping. *)

val file_offset : t -> stripe:int -> int -> int
(** Inverse map: object offset back to file offset. *)

val rid : fid:int -> stripe:int -> int
val rid_stripe : int -> int
