(** An interval index: a multiset of (interval, id, value) entries
    answering "which entries overlap [q]?" in O(log n + k).

    Backed by an AVL tree keyed by (lo, id) and augmented with each
    subtree's maximum [hi] (the classic interval-tree augmentation, as in
    Lustre's LDLM extent queues).  Unlike {!Extent_map}, entries may
    overlap arbitrarily — this indexes lock grant sets, where shared
    locks stack on the same extents.  The [id] (unique per entry, e.g. a
    lock id) disambiguates duplicates and addresses removal.

    The tree is mutable and updated in place: {!add} allocates one node
    and {!remove} none.  A callback given to a traversal ({!iter},
    {!iter_overlapping}, {!fold_overlapping}, {!exists_overlapping},
    {!find_first_from}) must not add to or remove from the tree being
    walked — a rotation under the walk would skip or repeat entries.
    Collect what to change and apply it after the walk.  The intervals
    handed to callbacks are the ones the entries were added with. *)

type 'a t

val create : unit -> 'a t
(** A fresh empty index. *)

val cardinal : 'a t -> int
val is_empty : 'a t -> bool

val add : 'a t -> Interval.t -> id:int -> 'a -> unit
(** O(log n).  Raises [Invalid_argument] on a duplicate (lo, id) key,
    leaving the index unchanged. *)

val remove : 'a t -> Interval.t -> id:int -> unit
(** O(log n).  [Interval.t] must be the one the entry was added with;
    raises [Invalid_argument] if the entry is absent, leaving the index
    unchanged. *)

val iter_overlapping : 'a t -> Interval.t -> (Interval.t -> int -> 'a -> unit) -> unit
(** Entries whose interval overlaps the query, in (lo, id) order. *)

val fold_overlapping :
  'a t -> Interval.t -> init:'b -> f:('b -> Interval.t -> int -> 'a -> 'b) -> 'b

val filter_overlapping :
  'a t -> Interval.t -> ('a -> bool) -> 'a list -> 'a list
(** [filter_overlapping t q p acc] conses onto [acc] the values of the
    entries overlapping [q] that satisfy [p], last visited first: the
    fold a caller would write with {!fold_overlapping}, without the
    closure it would allocate around [p]. *)

val exists_overlapping : 'a t -> Interval.t -> (Interval.t -> int -> 'a -> bool) -> bool

val find_first_from :
  'a t -> lo:int -> ('a -> bool) -> (Interval.t * int * 'a) option
(** The first entry in (lo, id) order whose start is [>= lo] and whose
    value satisfies the predicate.  O(log n) plus one predicate call per
    entry passed over on the way. *)

val iter : (Interval.t -> int -> 'a -> unit) -> 'a t -> unit
val to_list : 'a t -> (Interval.t * int * 'a) list
(** All entries in (lo, id) order. *)

val check_invariants : 'a t -> unit
