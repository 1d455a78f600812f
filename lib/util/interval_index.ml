(* An augmented AVL tree over intervals, updated in place: entries are
   keyed by (lo, id) — the id disambiguates duplicate starts — and every
   node caches the maximum [hi] of its subtree, so a query for the
   entries overlapping [lo, hi) prunes whole subtrees whose extents end
   at or before [lo].  Unlike {!Extent_map}, entries may overlap freely:
   this indexes the lock server's granted set, where shared locks pile
   up on the same extents.

   Nobody snapshots these trees, so an insertion or removal rewrites the
   nodes on its path instead of copying them: it allocates one node per
   insertion and nothing per removal.  A node keeps the interval it was
   added with, which the queries hand to their callbacks as is. *)

type 'a tree =
  | Leaf
  | Node of {
      mutable l : 'a tree;
      mutable iv : Interval.t;
      mutable id : int;
      mutable v : 'a;
      mutable r : 'a tree;
      mutable h : int; (* AVL height *)
      mutable mh : int; (* max hi over the subtree *)
    }

type 'a t = { mutable root : 'a tree; mutable n : int }

let create () = { root = Leaf; n = 0 }
let cardinal t = t.n
let is_empty t = t.n = 0

let height = function Leaf -> 0 | Node { h; _ } -> h
let max_hi = function Leaf -> min_int | Node { mh; _ } -> mh

(* Recompute a node's height and max-hi from its children. *)
let fix = function
  | Leaf -> ()
  | Node n ->
      let hl = height n.l and hr = height n.r in
      n.h <- (if hl >= hr then hl + 1 else hr + 1);
      let m = max_hi n.l and mr = max_hi n.r in
      let m = if mr > m then mr else m in
      n.mh <- (if n.iv.Interval.hi > m then n.iv.Interval.hi else m)

(* The rotations relink the nodes they are given and return the new
   subtree root; the caller stores it where the old root hung. *)
let rotate_right t =
  match t with
  | Node n -> (
      match n.l with
      | Node ln as l ->
          n.l <- ln.r;
          fix t;
          ln.r <- t;
          fix l;
          l
      | Leaf -> assert false)
  | Leaf -> assert false

let rotate_left t =
  match t with
  | Node n -> (
      match n.r with
      | Node rn as r ->
          n.r <- rn.l;
          fix t;
          rn.l <- t;
          fix r;
          r
      | Leaf -> assert false)
  | Leaf -> assert false

(* Stdlib-Map-style rebalancing: fix a height difference of at most 3
   between the children, so siblings end up at most 2 apart. *)
let bal t =
  match t with
  | Leaf -> t
  | Node n ->
      let hl = height n.l and hr = height n.r in
      if hl > hr + 2 then begin
        (match n.l with
        | Node ln when height ln.l < height ln.r -> n.l <- rotate_left n.l
        | Node _ | Leaf -> ());
        rotate_right t
      end
      else if hr > hl + 2 then begin
        (match n.r with
        | Node rn when height rn.r < height rn.l -> n.r <- rotate_right n.r
        | Node _ | Leaf -> ());
        rotate_left t
      end
      else begin
        fix t;
        t
      end

(* Child writes that skip the write barrier when the subtree root did
   not change, which is the case at most levels of a path. *)
let set_l t c = match t with Node n -> if n.l != c then n.l <- c | Leaf -> ()
let set_r t c = match t with Node n -> if n.r != c then n.r <- c | Leaf -> ()

let key_cmp lo id lo' id' =
  match Int.compare lo lo' with 0 -> Int.compare id id' | c -> c

let rec insert tree (iv : Interval.t) id v =
  match tree with
  | Leaf -> Node { l = Leaf; iv; id; v; r = Leaf; h = 1; mh = iv.hi }
  | Node n ->
      let c = key_cmp iv.lo id n.iv.lo n.id in
      if c = 0 then
        invalid_arg
          (Printf.sprintf "Interval_index.add: duplicate entry (lo=%d, id=%d)"
             iv.lo id)
      else if c < 0 then set_l tree (insert n.l iv id v)
      else set_r tree (insert n.r iv id v);
      bal tree

let rec leftmost = function
  | Node { l = Node _ as l; _ } -> leftmost l
  | t -> t

let rec delete tree lo id =
  match tree with
  | Leaf -> raise Not_found
  | Node n ->
      let c = key_cmp lo id n.iv.lo n.id in
      if c < 0 then begin
        set_l tree (delete n.l lo id);
        bal tree
      end
      else if c > 0 then begin
        set_r tree (delete n.r lo id);
        bal tree
      end
      else (
        match (n.l, n.r) with
        | Leaf, r -> r
        | l, Leaf -> l
        | _, r -> (
            (* Two children: the successor's entry moves into this
               node, and the successor's own node leaves the right
               subtree. *)
            match leftmost r with
            | Node s ->
                n.iv <- s.iv;
                n.id <- s.id;
                n.v <- s.v;
                n.r <- delete r s.iv.lo s.id;
                bal tree
            | Leaf -> assert false))

let add t (iv : Interval.t) ~id v =
  t.root <- insert t.root iv id v;
  t.n <- t.n + 1

let remove t (iv : Interval.t) ~id =
  match delete t.root iv.lo id with
  | root ->
      t.root <- root;
      t.n <- t.n - 1
  | exception Not_found ->
      invalid_arg
        (Printf.sprintf "Interval_index.remove: no entry (lo=%d, id=%d)" iv.lo
           id)

(* Entries overlapping [lo, hi): the subtree is pruned when every extent
   in it ends at or before [lo]; the right child is pruned when the
   node's start (a lower bound on every start to its right) is past
   [hi). *)
let rec iter_over tree lo hi f =
  match tree with
  | Leaf -> ()
  | Node n ->
      if n.mh > lo then begin
        iter_over n.l lo hi f;
        if n.iv.lo < hi then begin
          if n.iv.hi > lo then f n.iv n.id n.v;
          iter_over n.r lo hi f
        end
      end

let iter_overlapping t (q : Interval.t) f = iter_over t.root q.lo q.hi f

let rec fold_over tree lo hi f acc =
  match tree with
  | Leaf -> acc
  | Node n ->
      if n.mh <= lo then acc
      else
        let acc = fold_over n.l lo hi f acc in
        if n.iv.lo >= hi then acc
        else
          let acc = if n.iv.hi > lo then f acc n.iv n.id n.v else acc in
          fold_over n.r lo hi f acc

let fold_overlapping t (q : Interval.t) ~init ~f =
  fold_over t.root q.lo q.hi f init

let rec filter_over tree lo hi p acc =
  match tree with
  | Leaf -> acc
  | Node n ->
      if n.mh <= lo then acc
      else
        let acc = filter_over n.l lo hi p acc in
        if n.iv.lo >= hi then acc
        else
          let acc = if n.iv.hi > lo && p n.v then n.v :: acc else acc in
          filter_over n.r lo hi p acc

let filter_overlapping t (q : Interval.t) p acc =
  filter_over t.root q.lo q.hi p acc

let rec exists_over tree lo hi p =
  match tree with
  | Leaf -> false
  | Node n ->
      n.mh > lo
      && (exists_over n.l lo hi p
         || n.iv.lo < hi
            && ((n.iv.hi > lo && p n.iv n.id n.v) || exists_over n.r lo hi p))

let exists_overlapping t (q : Interval.t) p = exists_over t.root q.lo q.hi p

(* In-order from the first key with start >= [x]: a node left of [x] is
   skipped with its left subtree, so the walk costs O(log n) plus one
   visit per entry that fails [p] before the first that passes. *)
let rec first_from tree x p =
  match tree with
  | Leaf -> None
  | Node n ->
      if n.iv.lo < x then first_from n.r x p
      else (
        match first_from n.l x p with
        | Some _ as found -> found
        | None -> if p n.v then Some (n.iv, n.id, n.v) else first_from n.r x p)

let find_first_from t ~lo p = first_from t.root lo p

let rec iter_all tree f =
  match tree with
  | Leaf -> ()
  | Node n ->
      iter_all n.l f;
      f n.iv n.id n.v;
      iter_all n.r f

let iter f t = iter_all t.root f

let to_list t =
  let rec go acc = function
    | Leaf -> acc
    | Node n -> go ((n.iv, n.id, n.v) :: go acc n.r) n.l
  in
  go [] t.root

let check_invariants t =
  let rec check = function
    | Leaf -> (0, min_int, None, None)
    | Node n ->
        let hl, mhl, minl, maxl = check n.l in
        let hr, mhr, minr, maxr = check n.r in
        assert (n.h = 1 + max hl hr);
        assert (abs (hl - hr) <= 2);
        assert (n.mh = max n.iv.hi (max mhl mhr));
        assert (n.iv.lo < n.iv.hi);
        (* BST order on (lo, id) *)
        (match maxl with
        | Some (lo, id) -> assert (key_cmp lo id n.iv.lo n.id < 0)
        | None -> ());
        (match minr with
        | Some (lo, id) -> assert (key_cmp n.iv.lo n.id lo id < 0)
        | None -> ());
        ( 1 + max hl hr,
          max n.iv.hi (max mhl mhr),
          (match minl with Some _ -> minl | None -> Some (n.iv.lo, n.id)),
          match maxr with Some _ -> maxr | None -> Some (n.iv.lo, n.id) )
  in
  ignore (check t.root);
  let count = ref 0 in
  iter_all t.root (fun _ _ _ -> incr count);
  assert (!count = t.n)
