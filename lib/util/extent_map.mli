(** Maps from disjoint half-open byte intervals to values.

    This is the single data structure behind the three extent stores in
    the system: the client-cache page extent lists (value = SN of the
    dirty data), the data-server extent cache (value = max SN written to
    the device, paper §IV-B) and the abstract file contents used for
    correctness checking.

    The map maintains the invariant that stored intervals are pairwise
    disjoint.  Adjacent intervals with equal values are not automatically
    merged; use {!coalesce} (the extent cache merges "continuous extents
    of the same stripe with the same SN" to bound its size).

    {b Persistence.}  An ['a t] is persistent: no operation changes a
    map once it is built, and every version stays valid and shares
    nodes with the others.  A {!Transient.t} handle is the one mutable
    form: it edits the nodes it owns in place, and {!Transient.freeze}
    hands out its contents as an ['a t] that later edits of the handle
    never touch.  A persistent map never holds a node a live handle
    owns, so any map can go into any handle.

    The map is an AVL tree keyed by extent start, each node carrying
    its extent, value, height and owner.  With n extents stored and k
    of them meeting the argument range:
    - {!cardinal}, {!is_empty}: O(1);
    - {!find}, {!overlaps}: O(log n), one descent, no allocation;
    - {!overlapping}, {!covered}: O(log n + k), one pruned descent;
    - {!set}, {!merge}: O(log n) when the range is a gap (one descent),
      O((k + 1) log n) otherwise;
    - {!set_all}: O(log n + log m) when the argument map's m extents
      span a gap, m extents set one by one otherwise;
    - {!append}: O(k + log n) for a sorted run of k extents past the
      map's end;
    - {!cut}: O(log n), copying no node, when the range covers every
      extent or meets none, O(log n + k) otherwise; {!split_nth} [i]:
      O(log n + i);
    - {!remove}: O((k + 1) log n); O(log n) when the range covers every
      extent;
    - {!fold}, {!iter}, {!to_list}: O(n);
    - {!filter}: O(n), plus O(log n) per extent dropped;
    - {!coalesce}: O(n) scan, plus O(log n) per absorbed extent.

    A persistent edit copies the path to every node it changes.  The
    same edit through a handle copies a node only the first time the
    handle changes it, and edits it in place after that: a gap insert
    under an owned path allocates one node.  The bounds above hold for
    both. *)

type 'a t

val empty : 'a t
val is_empty : 'a t -> bool

val cardinal : 'a t -> int
(** Number of stored extents (the quantity the data server's cleanup task
    compares against its 256 K-entry threshold). *)

val set : 'a t -> Interval.t -> 'a -> 'a t
(** [set m iv v] overwrites the range [iv] with [v], splitting any
    overlapping extents. *)

val remove : 'a t -> Interval.t -> 'a t
(** Clear a range, splitting partially-covered extents. *)

val find : 'a t -> int -> 'a option
(** Value at a byte offset, if covered. *)

val overlapping : 'a t -> Interval.t -> (Interval.t * 'a) list
(** Extents intersecting the range, clipped to it, in offset order. *)

val overlaps : 'a t -> Interval.t -> bool
(** [overlaps m iv] iff some extent intersects the range: [overlapping m
    iv <> []] without building the list. *)

val covered : 'a t -> Interval.t -> bool
(** True iff every byte of the range is mapped. *)

val merge :
  'a t -> Interval.t -> 'a -> keep_new:(old:'a -> bool) ->
  'a t * Interval.t list
(** [merge m iv v ~keep_new] writes [v] over [iv] but, where an old value
    [w] is present, keeps [w] unless [keep_new ~old:w].  Returns the new
    map and the ordered sub-ranges where the new value won (the paper's
    "update set": the parts of an out-of-order flush that must actually
    reach the device). *)

val span : 'a t -> Interval.t option
(** [[lo, hi)] from the first extent's start to the last one's end;
    [None] on the empty map. *)

val cut : 'a t -> Interval.t -> 'a t * 'a t
(** [cut m iv] is [(inside, rest)]: the extents meeting [iv] clipped to
    it, as a map, and [remove m iv].  An extent straddling either end
    of [iv] is split there.  A range covering every extent gives [(m,
    empty)], [m] itself: the client's whole-stripe flush hands its dirty
    map over untouched. *)

val set_all : 'a t -> 'a t -> 'a t
(** [set_all m sub] sets every extent of [sub] in [m], in offset order,
    as successive {!set}s would.  When [sub] holds several extents and
    its span meets no extent of [m] (the gap case), [m] is split where
    [sub] goes and [sub]'s tree is joined in whole, so the result
    shares [sub]'s nodes; into an empty [m], [sub] itself comes back. *)

val append : 'a t -> (Interval.t * 'a) list -> 'a t
(** [append m run] sets the extents of [run], given newest first (in
    decreasing offset order, as a run consed one write at a time is),
    when each ends at or before the start of the one before it in the
    list and the oldest starts at or past the end of [m]'s last
    extent: the map successive {!set}s in offset order would give, in
    O(k + log n) for k extents, instead of k descents that each copy a
    path.  Raises [Invalid_argument] when the run is out of order or
    meets [m]. *)

val split_nth : 'a t -> int -> 'a t * 'a t
(** [split_nth m i]: the first [i] extents in offset order and the
    rest.  [i <= 0] gives [(empty, m)], [i >= cardinal m] [(m,
    empty)]. *)

val total_length : 'a t -> int
(** Sum of the extents' lengths, without allocating. *)

val fold : (Interval.t -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
(** Fold in increasing offset order. *)

val iter : (Interval.t -> 'a -> unit) -> 'a t -> unit
val to_list : 'a t -> (Interval.t * 'a) list
val of_list : (Interval.t * 'a) list -> 'a t
(** Builds by successive {!set}; later entries win on overlap. *)

val coalesce : eq:('a -> 'a -> bool) -> 'a t -> 'a t
(** Merge adjacent extents carrying equal values. *)

val filter : (Interval.t -> 'a -> bool) -> 'a t -> 'a t

val check_invariants : 'a t -> unit
(** Raises [Assert_failure] if intervals are not sorted and disjoint, a
    node's height is wrong, sibling heights differ by more than 2, or the
    stored count is wrong.  Used by the property tests. *)

(** Transient handles: one map edited in place.

    A handle owns the nodes it made or copied since it was created or
    last frozen, and edits exactly those in place; any other node it
    changes is copied once into its ownership.  Every node keeps its
    owner id in its height field, so ownership adds no word to a node.
    Ids come from one process-wide counter and are never reused; an id
    decides only whether a node is edited in place or copied, never
    what any operation answers.

    A handle has no older version to alias: {!freeze} gives its
    contents out as a persistent map and takes a fresh id, after which
    the handle copies any node it changes again, once.  Maps handed in
    ({!of_map}, {!set_all}) keep their nodes shared: the handle copies
    one only when it has to change it.  Every edit has the cost its
    persistent counterpart above lists. *)
module Transient : sig
  type 'a map := 'a t
  type 'a t

  val of_map : 'a map -> 'a t
  (** A handle on the map's extents, sharing all its nodes.  O(1). *)

  val freeze : 'a t -> 'a map
  (** The handle's extents as a persistent map, which no later edit of
      the handle changes.  O(1). *)

  val cardinal : 'a t -> int
  val set : 'a t -> Interval.t -> 'a -> unit
  val remove : 'a t -> Interval.t -> unit

  val merge :
    'a t -> Interval.t -> 'a -> keep_new:(old:'a -> bool) -> Interval.t list
  (** {!Extent_map.merge} in place: returns the update set. *)

  val cut : 'a t -> Interval.t -> 'a map
  (** {!Extent_map.cut} in place: the handle keeps the rest, and the
      extents meeting the range come back as a persistent map.  A range
      covering every extent hands the whole tree over and empties the
      handle. *)

  val set_all : 'a t -> 'a map -> unit
  (** {!Extent_map.set_all} in place.  Into a gap, and into an empty
      handle, the argument's tree is joined whole: its nodes stay
      shared with it. *)

  val coalesce : eq:('a -> 'a -> bool) -> 'a t -> unit
  val overlaps : 'a t -> Interval.t -> bool
  val overlapping : 'a t -> Interval.t -> (Interval.t * 'a) list

  val equal_at : eq:('a -> 'a -> bool) -> 'a t -> int -> bool
  (** [equal_at ~eq h pos]: an extent ends at [pos], the next one starts
      there, and their values are [eq] — a seam {!coalesce} would merge
      across.  O(log n), allocation-free. *)

  val seams_equal : eq:('a -> 'a -> bool) -> 'a t -> 'a map -> bool
  (** [seams_equal ~eq h sub], for a [sub] whose extents are all in the
      handle and lie back to back there (as after {!set_all} of [sub]
      into a gap): whether the handle has an {!equal_at} seam inside
      [sub]'s span or at either end of it.  O(k + log n) for [sub]'s k
      extents, allocation-free. *)

  val iter : (Interval.t -> 'a -> unit) -> 'a t -> unit
  val to_list : 'a t -> (Interval.t * 'a) list

  val check_invariants : 'a t -> unit
  (** {!Extent_map.check_invariants}, and that the nodes the handle owns
      form a cap at the top of its tree: none lies below a node it does
      not own. *)
end
