(* Int-keyed hash tables.  The generic [Hashtbl] hashes every key with
   the C [caml_hash] and compares it with the polymorphic compare; on
   the grant path's lookups (lock ids, resource ids, client ids, pids)
   both are pure overhead.  Here equality is [Int.equal] and the hash is
   the key itself, masked non-negative: keys are mostly dense small
   integers, which the bucket mask spreads perfectly.

   The hash is fixed (no seed), so bucket order is the same in every
   process; traversals still go through the sorted ones below — raw
   [iter]/[fold] order depends on the table's size history, and lint
   rule D001 flags it as it flags [Hashtbl]'s. *)

include Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash (k : int) = k land max_int
end)

(* The one raw fold of this module: the keys are sorted right away, so
   no caller can observe bucket order. *)
let sorted_keys tbl =
  fold (fun k _ acc -> k :: acc) tbl [] |> List.sort_uniq Int.compare

let iter_sorted f tbl = List.iter (fun k -> f k (find tbl k)) (sorted_keys tbl)

let fold_sorted f tbl init =
  List.fold_left (fun acc k -> f k (find tbl k) acc) init (sorted_keys tbl)

let bindings_sorted tbl = List.map (fun k -> (k, find tbl k)) (sorted_keys tbl)
