(** Hash tables keyed by [int], with an inlined int hash and
    [Int.equal] instead of the generic [Hashtbl]'s polymorphic hash and
    compare.

    Raw {!iter}, {!fold} and [to_seq*] visit entries in bucket order,
    which depends on the table's size history; lint rule D001 flags
    them.  The sorted traversals below visit keys in increasing order,
    so the result is a function of the table's contents only; a key
    shadowed by {!add} is visited once, with its current binding. *)

include Hashtbl.S with type key = int

val sorted_keys : 'a t -> int list
val iter_sorted : (int -> 'a -> unit) -> 'a t -> unit
val fold_sorted : (int -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
val bindings_sorted : 'a t -> (int * 'a) list
