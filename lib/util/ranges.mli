(** Lock range sets: the byte ranges one lock request or grant covers.

    A DLM-datatype request carries the exact non-contiguous ranges of
    one IO (paper §V-A); every other request carries one range.  A [t]
    is non-empty, sorted by offset, and no two of its ranges overlap or
    touch, by construction: the only constructors are {!single},
    {!of_list} and {!union}.  That is the canonical form of a byte set,
    so two [t]s covering the same bytes are equal lists, and each
    operation on [t]s is one linear scan with no re-check of the shape.

    The representation is the list itself, so a [t] costs no more than
    the ranges it holds; [(r :> Interval.t list)] reads it. *)

type t = private Interval.t list

val single : Interval.t -> t

val of_list : Interval.t list -> t
(** Sort, and merge overlapping or touching ranges.  Raises
    [Invalid_argument] on the empty list. *)

val union : t -> t -> t
(** The byte-set union, by a linear merge. *)

val overlaps : t -> t -> bool
(** Whether the two sets share a byte: a merge scan that stops at the
    first shared range. *)

val hull : t -> Interval.t
(** The smallest interval covering every range: first [lo], last [hi]. *)

val covers : t -> t -> bool
(** [covers a b] iff every byte of [b] lies in [a]. *)

val pp : Format.formatter -> t -> unit
(** The ranges, comma-separated. *)
