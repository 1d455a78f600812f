(* The interval index before it was made an in-place tree, kept
   verbatim as the reference model for the differential property in
   test_util.ml: a persistent AVL tree that path-copies every node on
   the way to each insertion or removal.  The production index must
   answer every query as this one does, entries in the same order.
   Only this comment and the [open] below were added. *)

open Ccpfs_util

(* An augmented AVL tree over intervals: entries are keyed by
   (lo, id) — the id disambiguates duplicate starts — and every node
   caches the maximum [hi] of its subtree, so a query for the entries
   overlapping [lo, hi) prunes whole subtrees whose extents end at or
   before [lo].  Unlike {!Extent_map}, entries may overlap freely: this
   indexes the lock server's granted set, where shared locks pile up on
   the same extents. *)

type 'a tree =
  | Leaf
  | Node of {
      l : 'a tree;
      lo : int;
      hi : int;
      id : int;
      v : 'a;
      r : 'a tree;
      h : int; (* AVL height *)
      mh : int; (* max hi over the subtree *)
    }

type 'a t = { tree : 'a tree; n : int }

let empty = { tree = Leaf; n = 0 }
let cardinal t = t.n
let is_empty t = t.n = 0

let height = function Leaf -> 0 | Node { h; _ } -> h
let max_hi = function Leaf -> min_int | Node { mh; _ } -> mh

let mk l lo hi id v r =
  Node
    {
      l; lo; hi; id; v; r;
      h = 1 + max (height l) (height r);
      mh = max hi (max (max_hi l) (max_hi r));
    }

(* Stdlib-Map-style rebalancing: fix a height difference of at most 2. *)
let bal l lo hi id v r =
  let hl = height l and hr = height r in
  if hl > hr + 2 then
    match l with
    | Leaf -> assert false
    | Node { l = ll; lo = llo; hi = lhi; id = lid; v = lv; r = lr; _ } ->
        if height ll >= height lr then mk ll llo lhi lid lv (mk lr lo hi id v r)
        else (
          match lr with
          | Leaf -> assert false
          | Node
              { l = lrl; lo = lrlo; hi = lrhi; id = lrid; v = lrv; r = lrr; _ }
            ->
              mk
                (mk ll llo lhi lid lv lrl)
                lrlo lrhi lrid lrv
                (mk lrr lo hi id v r))
  else if hr > hl + 2 then
    match r with
    | Leaf -> assert false
    | Node { l = rl; lo = rlo; hi = rhi; id = rid; v = rv; r = rr; _ } ->
        if height rr >= height rl then mk (mk l lo hi id v rl) rlo rhi rid rv rr
        else (
          match rl with
          | Leaf -> assert false
          | Node
              { l = rll; lo = rllo; hi = rlhi; id = rlid; v = rlv; r = rlr; _ }
            ->
              mk
                (mk l lo hi id v rll)
                rllo rlhi rlid rlv
                (mk rlr rlo rhi rid rv rr))
  else mk l lo hi id v r

let key_cmp lo id lo' id' =
  match Int.compare lo lo' with 0 -> Int.compare id id' | c -> c

let rec insert tree (iv : Interval.t) id v =
  match tree with
  | Leaf -> mk Leaf iv.lo iv.hi id v Leaf
  | Node n ->
      let c = key_cmp iv.lo id n.lo n.id in
      if c = 0 then
        invalid_arg
          (Printf.sprintf "Interval_index.add: duplicate entry (lo=%d, id=%d)"
             iv.lo id)
      else if c < 0 then bal (insert n.l iv id v) n.lo n.hi n.id n.v n.r
      else bal n.l n.lo n.hi n.id n.v (insert n.r iv id v)

let rec min_binding = function
  | Leaf -> invalid_arg "Interval_index.min_binding: empty"
  | Node { l = Leaf; lo; hi; id; v; _ } -> (lo, hi, id, v)
  | Node { l; _ } -> min_binding l

let rec delete tree lo id =
  match tree with
  | Leaf -> raise Not_found
  | Node n ->
      let c = key_cmp lo id n.lo n.id in
      if c < 0 then bal (delete n.l lo id) n.lo n.hi n.id n.v n.r
      else if c > 0 then bal n.l n.lo n.hi n.id n.v (delete n.r lo id)
      else (
        match (n.l, n.r) with
        | Leaf, r -> r
        | l, Leaf -> l
        | l, r ->
            let slo, shi, sid, sv = min_binding r in
            bal l slo shi sid sv (delete r slo sid))

let add t (iv : Interval.t) ~id v = { tree = insert t.tree iv id v; n = t.n + 1 }

let remove t (iv : Interval.t) ~id =
  match delete t.tree iv.lo id with
  | tree -> { tree; n = t.n - 1 }
  | exception Not_found ->
      invalid_arg
        (Printf.sprintf "Interval_index.remove: no entry (lo=%d, id=%d)" iv.lo
           id)

(* Entries overlapping [q]: the subtree is pruned when every extent in it
   ends at or before [q.lo]; the right child is pruned when the node's
   start (a lower bound on every start to its right) is past [q.hi). *)
let rec iter_over tree (q : Interval.t) f =
  match tree with
  | Leaf -> ()
  | Node n ->
      if n.mh > q.lo then begin
        iter_over n.l q f;
        if n.lo < q.hi then begin
          if n.hi > q.lo then f (Interval.v ~lo:n.lo ~hi:n.hi) n.id n.v;
          iter_over n.r q f
        end
      end

let iter_overlapping t q f = iter_over t.tree q f

let fold_overlapping t q ~init ~f =
  let acc = ref init in
  iter_over t.tree q (fun iv id v -> acc := f !acc iv id v);
  !acc

exception Found

let exists_overlapping t q p =
  match iter_over t.tree q (fun iv id v -> if p iv id v then raise Found) with
  | () -> false
  | exception Found -> true

(* In-order from the first key with start >= [x]: a node left of [x] is
   skipped with its left subtree, so the walk costs O(log n) plus one
   visit per entry that fails [p] before the first that passes. *)
let rec first_from tree x p =
  match tree with
  | Leaf -> None
  | Node n ->
      if n.lo < x then first_from n.r x p
      else (
        match first_from n.l x p with
        | Some _ as found -> found
        | None ->
            if p n.v then Some (Interval.v ~lo:n.lo ~hi:n.hi, n.id, n.v)
            else first_from n.r x p)

let find_first_from t ~lo p = first_from t.tree lo p

let rec iter_all tree f =
  match tree with
  | Leaf -> ()
  | Node n ->
      iter_all n.l f;
      f (Interval.v ~lo:n.lo ~hi:n.hi) n.id n.v;
      iter_all n.r f

let iter f t = iter_all t.tree (fun iv id v -> f iv id v)

let to_list t =
  let acc = ref [] in
  iter_all t.tree (fun iv id v -> acc := (iv, id, v) :: !acc);
  List.rev !acc

let check_invariants t =
  let rec check = function
    | Leaf -> (0, min_int, None, None)
    | Node n ->
        let hl, mhl, minl, maxl = check n.l in
        let hr, mhr, minr, maxr = check n.r in
        assert (n.h = 1 + max hl hr);
        assert (abs (hl - hr) <= 2);
        assert (n.mh = max n.hi (max mhl mhr));
        assert (n.lo < n.hi);
        (* BST order on (lo, id) *)
        (match maxl with
        | Some (lo, id) -> assert (key_cmp lo id n.lo n.id < 0)
        | None -> ());
        (match minr with
        | Some (lo, id) -> assert (key_cmp n.lo n.id lo id < 0)
        | None -> ());
        ( 1 + max hl hr,
          max n.hi (max mhl mhr),
          (match minl with Some _ -> minl | None -> Some (n.lo, n.id)),
          match maxr with Some _ -> maxr | None -> Some (n.lo, n.id) )
  in
  ignore (check t.tree);
  let count = ref 0 in
  iter_all t.tree (fun _ _ _ -> incr count);
  assert (!count = t.n)
