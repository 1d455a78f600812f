(* A persistent AVL tree specialised to disjoint extents.  Each node
   carries its extent [lo, hi) and value inline, keyed by [lo], plus its
   height.  Invariants: in order, the extents are sorted and pairwise
   disjoint; sibling heights differ by at most 2 (the balance Stdlib's
   Map keeps).  The entry count is tracked beside the tree so
   [cardinal] is O(1) — the data server's cleanup trigger reads it on
   every flush RPC. *)
type 'a tree =
  | Leaf
  | Node of { l : 'a tree; lo : int; hi : int; v : 'a; r : 'a tree; h : int }

type 'a t = { m : 'a tree; n : int }

let empty = { m = Leaf; n = 0 }
let is_empty t = t.n = 0
let cardinal t = t.n

let height = function Leaf -> 0 | Node { h; _ } -> h

let create l lo hi v r =
  let hl = height l and hr = height r in
  Node { l; lo; hi; v; r; h = (if hl >= hr then hl + 1 else hr + 1) }

(* Stdlib Map's rebalancing step: [l] and [r] are balanced and their
   heights differ by at most 3. *)
let bal l lo hi v r =
  let hl = height l and hr = height r in
  if hl > hr + 2 then
    match l with
    | Node { l = ll; lo = llo; hi = lhi; v = lv; r = lr; _ } -> (
        if height ll >= height lr then
          create ll llo lhi lv (create lr lo hi v r)
        else
          match lr with
          | Node { l = lrl; lo = lrlo; hi = lrhi; v = lrv; r = lrr; _ } ->
              create (create ll llo lhi lv lrl) lrlo lrhi lrv
                (create lrr lo hi v r)
          | Leaf -> assert false)
    | Leaf -> assert false
  else if hr > hl + 2 then
    match r with
    | Node { l = rl; lo = rlo; hi = rhi; v = rv; r = rr; _ } -> (
        if height rr >= height rl then
          create (create l lo hi v rl) rlo rhi rv rr
        else
          match rl with
          | Node { l = rll; lo = rllo; hi = rlhi; v = rlv; r = rlr; _ } ->
              create (create l lo hi v rll) rllo rlhi rlv
                (create rlr rlo rhi rv rr)
          | Leaf -> assert false)
    | Leaf -> assert false
  else create l lo hi v r

exception Overlap

(* Gap insert in one descent.  Every subtree the descent leaves holds
   only extents ending at or before [lo] or starting at or past [hi]:
   at a node ending at or before [lo], its left subtree ends before it,
   and symmetrically on the right.  In particular [lo]'s in-order
   neighbours both lie on the path.  So either a visited node meets
   [lo, hi), and the descent bails out with [Overlap], or it reaches a
   leaf and the extent lies in a gap. *)
let rec insert lo hi v = function
  | Leaf -> Node { l = Leaf; lo; hi; v; r = Leaf; h = 1 }
  | Node n ->
      if hi <= n.lo then bal (insert lo hi v n.l) n.lo n.hi n.v n.r
      else if lo >= n.hi then bal n.l n.lo n.hi n.v (insert lo hi v n.r)
      else raise_notrace Overlap

(* Fold [f] over the extents meeting [lo, hi), in decreasing offset
   order, so that consing builds an increasing list.  The in-order
   descent is pruned: at a node starting at or past [hi] only its left
   subtree can meet the range, at one ending at or before [lo] only its
   right.  O(log n + k) for k extents met. *)
let rec fold_desc lo hi f t acc =
  match t with
  | Leaf -> acc
  | Node n ->
      if n.lo >= hi then fold_desc lo hi f n.l acc
      else if n.hi <= lo then fold_desc lo hi f n.r acc
      else fold_desc lo hi f n.l (f n.lo n.hi n.v (fold_desc lo hi f n.r acc))

(* The same pruned descent, without allocating: a single path, since
   the first node met answers. *)
let rec meets lo hi = function
  | Leaf -> false
  | Node n ->
      if n.lo >= hi then meets lo hi n.l
      else if n.hi <= lo then meets lo hi n.r
      else true

let rec leftmost = function
  | Node { l = Leaf; _ } as t -> t
  | Node { l; _ } -> leftmost l
  | Leaf -> Leaf

let rec rightmost = function
  | Node { r = Leaf; _ } as t -> t
  | Node { r; _ } -> rightmost r
  | Leaf -> Leaf

let singleton lo hi v = Node { l = Leaf; lo; hi; v; r = Leaf; h = 1 }

let rec add_min lo hi v = function
  | Leaf -> singleton lo hi v
  | Node n -> bal (add_min lo hi v n.l) n.lo n.hi n.v n.r

let rec add_max lo hi v = function
  | Leaf -> singleton lo hi v
  | Node n -> bal n.l n.lo n.hi n.v (add_max lo hi v n.r)

(* Stdlib Map's join: every extent of [l] lies before [lo, hi), every
   one of [r] after it, and their heights are arbitrary.  Walks down
   the taller side to a subtree the other matches, so O(|hl - hr| + 1). *)
let rec join l lo hi v r =
  match (l, r) with
  | Leaf, _ -> add_min lo hi v r
  | _, Leaf -> add_max lo hi v l
  | Node ln, Node rn ->
      if ln.h > rn.h + 2 then bal ln.l ln.lo ln.hi ln.v (join ln.r lo hi v r)
      else if rn.h > ln.h + 2 then bal (join l lo hi v rn.l) rn.lo rn.hi rn.v rn.r
      else create l lo hi v r

let rec remove_min = function
  | Leaf -> Leaf
  | Node { l = Leaf; r; _ } -> r
  | Node n -> bal (remove_min n.l) n.lo n.hi n.v n.r

(* Every extent of [l] lies before every one of [r]. *)
let concat l r =
  match leftmost r with
  | Leaf -> l
  | Node m -> join l m.lo m.hi m.v (remove_min r)

(* [split x t] is the extents before [x] and those after it, an extent
   straddling [x] clipped into one piece on each side, and whether
   there was one: at most one can straddle, and it lies on the path.
   One descent, a [join] per level: O(log n). *)
let rec split x = function
  | Leaf -> (Leaf, Leaf, false)
  | Node n ->
      if x <= n.lo then
        let ll, lr, clipped = split x n.l in
        (ll, join lr n.lo n.hi n.v n.r, clipped)
      else if x >= n.hi then
        let rl, rr, clipped = split x n.r in
        (join n.l n.lo n.hi n.v rl, rr, clipped)
      else (add_max n.lo x n.v n.l, add_min x n.hi n.v n.r, true)

let rec count = function Leaf -> 0 | Node n -> count n.l + 1 + count n.r

let rec remove_key k = function
  | Leaf -> Leaf
  | Node n ->
      if k < n.lo then bal (remove_key k n.l) n.lo n.hi n.v n.r
      else if k > n.lo then bal n.l n.lo n.hi n.v (remove_key k n.r)
      else
        match leftmost n.r with
        | Node m -> bal n.l m.lo m.hi m.v (remove_min n.r)
        | Leaf -> n.l

(* Rewrite the extent starting at [k] as [lo, hi) -> [v].  The caller
   keeps the order: no other extent meets the new one, none starts
   between [k] and [lo]. *)
let rec replace k lo hi v = function
  | Leaf -> Leaf
  | Node n ->
      if k < n.lo then Node { n with l = replace k lo hi v n.l }
      else if k > n.lo then Node { n with r = replace k lo hi v n.r }
      else Node { n with lo; hi; v }

(* Clear [lo, hi), one edit per extent met: one that sticks out on the
   left is shortened in place, one that sticks out on the right is
   rekeyed in place (nothing starts inside it), one that sticks out on
   both sides is shortened and its right part inserted into the gap
   that leaves, and the rest are removed by key.  The edits touch
   distinct keys and each keeps the order on its own, so their order
   does not matter.  A span covering every extent gives [empty]: the
   client's whole-stripe flush [0, EOF). *)
let remove_span t lo hi =
  match (leftmost t.m, rightmost t.m) with
  | Leaf, _ | _, Leaf -> t
  | Node first, Node last when lo <= first.lo && last.hi <= hi -> empty
  | Node _, Node _ ->
      fold_desc lo hi
        (fun l h w t ->
          if l < lo then
            let m = replace l l lo w t.m in
            if h > hi then { m = insert hi h w m; n = t.n + 1 } else { t with m }
          else if h > hi then { t with m = replace l hi h w t.m }
          else { m = remove_key l t.m; n = t.n - 1 })
        t.m t

let set t (iv : Interval.t) v =
  match insert iv.lo iv.hi v t.m with
  | m -> { m; n = t.n + 1 }
  | exception Overlap ->
      let t = remove_span t iv.lo iv.hi in
      { m = insert iv.lo iv.hi v t.m; n = t.n + 1 }

let remove t (iv : Interval.t) = remove_span t iv.lo iv.hi

let find t off =
  let rec go = function
    | Leaf -> None
    | Node n ->
        if off < n.lo then go n.l else if off >= n.hi then go n.r else Some n.v
  in
  go t.m

let overlapping t (iv : Interval.t) =
  fold_desc iv.lo iv.hi
    (fun l h v acc -> (Interval.v ~lo:(max l iv.lo) ~hi:(min h iv.hi), v) :: acc)
    t.m []

let overlaps t (iv : Interval.t) = meets iv.lo iv.hi t.m

(* The end of the covered prefix of [lo, hi) starting at [pos], walked
   in order over the extents met; a hole stops the walk, and every
   caller up the path sees the returned end fall short of its own
   start. *)
let rec reach lo hi pos = function
  | Leaf -> pos
  | Node n ->
      if n.lo >= hi then reach lo hi pos n.l
      else if n.hi <= lo then reach lo hi pos n.r
      else
        let pos = reach lo hi pos n.l in
        if n.lo > pos then pos else reach lo hi (max pos n.hi) n.r

let covered t (iv : Interval.t) = reach iv.lo iv.hi iv.lo t.m >= iv.hi

let merge m (iv : Interval.t) v ~keep_new =
  match insert iv.lo iv.hi v m.m with
  | tree ->
      (* All gap, the common case on both the client cache and the data
         server: the update set is the whole extent. *)
      ({ m = tree; n = m.n + 1 }, [ iv ])
  | exception Overlap ->
      (* Sub-ranges of [iv] where the new value wins: gaps, plus covered
         parts whose old value loses to [keep_new].  Walked right to
         left, [pos] is the start of what is already decided. *)
      let won = ref [] and pos = ref iv.hi in
      let push lo hi = if lo < hi then won := Interval.v ~lo ~hi :: !won in
      fold_desc iv.lo iv.hi
        (fun l h w () ->
          let lo = max l iv.lo and hi = min h iv.hi in
          push hi !pos;
          if keep_new ~old:w then push lo hi;
          pos := lo)
        m.m ();
      push iv.lo !pos;
      let won = !won in
      (List.fold_left (fun m seg -> set m seg v) m won, won)

let span t =
  match (leftmost t.m, rightmost t.m) with
  | Node first, Node last -> Some (Interval.v ~lo:first.lo ~hi:last.hi)
  | Leaf, _ | _, Leaf -> None

(* The whole map when the range covers it (the client's whole-stripe
   flush), nothing when the range meets no extent, and otherwise two
   splits: the cut's own extents are counted, O(k), and the rest's
   count follows from the pieces the splits made. *)
let cut t (iv : Interval.t) =
  match (leftmost t.m, rightmost t.m) with
  | Node first, Node last when iv.lo <= first.lo && last.hi <= iv.hi ->
      (t, empty)
  | _ when not (meets iv.lo iv.hi t.m) -> (empty, t)
  | _ ->
      let below, rest, cut_lo = split iv.lo t.m in
      let inside, above, cut_hi = split iv.hi rest in
      let k = count inside in
      ( { m = inside; n = k },
        {
          m = concat below above;
          n = t.n + Bool.to_int cut_lo + Bool.to_int cut_hi - k;
        } )

let set_all t sub =
  match span sub with
  | None -> t
  | Some _ when t.n = 0 -> sub
  | Some s when sub.n > 1 && not (meets s.lo s.hi t.m) ->
      (* All gap: [t] splits where [sub] goes, and [sub]'s tree is
         joined in whole, so the result shares its nodes.  A single
         extent is cheaper to [set]: one descent, no split. *)
      let below, above, _ = split s.lo t.m in
      { m = concat (concat below sub.m) above; n = t.n + sub.n }
  | Some _ ->
      let rec go t = function
        | Leaf -> t
        | Node n -> go (set (go t n.l) (Interval.v ~lo:n.lo ~hi:n.hi) n.v) n.r
      in
      go t sub.m

(* The run, newest first, is built into a balanced tree from the top
   down: each subtree takes its right half off the front of the list
   (the larger offsets), then its root, then its left half.  The
   oldest extent is left over, and [join] puts it between the map and
   that tree, walking down the taller one: O(k + log n). *)
let append t run =
  match run with
  | [] -> t
  | _ :: _ ->
      let k = List.length run in
      let rest = ref run and above = ref Interval.eof in
      let next () =
        match !rest with
        | (((iv : Interval.t), _) as e) :: tl ->
            if iv.hi > !above then
              invalid_arg "Extent_map.append: run not sorted";
            rest := tl;
            above := iv.lo;
            e
        | [] -> assert false
      in
      let rec build n =
        if n = 0 then Leaf
        else
          let nl = (n - 1) / 2 in
          let r = build (n - 1 - nl) in
          let iv, v = next () in
          create (build nl) iv.lo iv.hi v r
      in
      let sub = build (k - 1) in
      let first, v = next () in
      (match rightmost t.m with
      | Node last when last.hi > first.lo ->
          invalid_arg "Extent_map.append: run starts inside the map"
      | _ -> ());
      { m = join t.m first.lo first.hi v sub; n = t.n + k }

(* The first [i] extents end where the [i]-th (from 0) starts. *)
exception Start of int

let split_nth t i =
  if i <= 0 then (empty, t)
  else if i >= t.n then (t, empty)
  else
    let k = ref i in
    let rec find = function
      | Leaf -> ()
      | Node n ->
          find n.l;
          if !k = 0 then raise_notrace (Start n.lo);
          decr k;
          find n.r
    in
    match find t.m with
    | () -> assert false
    | exception Start lo ->
        let below, above, _ = split lo t.m in
        ({ m = below; n = i }, { m = above; n = t.n - i })

let total_length t =
  let rec go acc = function
    | Leaf -> acc
    | Node n -> go (go (acc + n.hi - n.lo) n.l) n.r
  in
  go 0 t.m

let fold f t acc =
  let rec go acc = function
    | Leaf -> acc
    | Node n -> go (f (Interval.v ~lo:n.lo ~hi:n.hi) n.v (go acc n.l)) n.r
  in
  go acc t.m

let iter f t =
  let rec go = function
    | Leaf -> ()
    | Node n ->
        go n.l;
        f (Interval.v ~lo:n.lo ~hi:n.hi) n.v;
        go n.r
  in
  go t.m

let to_list t =
  let rec go acc = function
    | Leaf -> acc
    | Node n -> go ((Interval.v ~lo:n.lo ~hi:n.hi, n.v) :: go acc n.r) n.l
  in
  go [] t.m

let of_list l = List.fold_left (fun t (iv, v) -> set t iv v) empty l

(* One in-order scan finds the runs of adjacent extents whose values
   [eq] their run head's.  Only those runs are edited: the absorbed
   starts are removed and the head is rewritten to span the run, so the
   extents are the ones a rebuild from the merged runs would give.  A
   scan that finds no run allocates nothing and returns [t] itself. *)
let coalesce ~eq t =
  match leftmost t.m with
  | Leaf -> t
  | Node first ->
      (* The open run: head start and value, end, absorbed starts. *)
      let head_lo = ref first.lo and head_v = ref first.v in
      let run_hi = ref first.hi in
      let absorbed = ref [] and edits = ref [] in
      let close () =
        match !absorbed with
        | [] -> ()
        | keys ->
            edits := (!head_lo, !run_hi, !head_v, keys) :: !edits;
            absorbed := []
      in
      let rec scan = function
        | Leaf -> ()
        | Node n ->
            scan n.l;
            if n.lo = !run_hi && eq !head_v n.v then begin
              absorbed := n.lo :: !absorbed;
              run_hi := n.hi
            end
            else begin
              close ();
              head_lo := n.lo;
              head_v := n.v;
              run_hi := n.hi
            end;
            scan n.r
      in
      scan t.m;
      close ();
      List.fold_left
        (fun t (lo, hi, v, keys) ->
          let m = List.fold_left (fun m k -> remove_key k m) t.m keys in
          { m = replace lo lo hi v m; n = t.n - List.length keys })
        t !edits

(* Seam probes for callers that track whether a {!coalesce} could merge
   anything.  They walk the shared tree and return its nodes, never a
   fresh option or closure, so a probe allocates nothing. *)
let rec ending_at pos = function
  | Leaf -> Leaf
  | Node n as t ->
      if n.hi = pos then t
      else if n.hi < pos then ending_at pos n.r
      else ending_at pos n.l

let rec starting_at pos = function
  | Leaf -> Leaf
  | Node n as t ->
      if n.lo = pos then t
      else if n.lo < pos then starting_at pos n.r
      else starting_at pos n.l

let equal_at ~eq t pos =
  match (ending_at pos t.m, starting_at pos t.m) with
  | Node a, Node b -> eq a.v b.v
  | _ -> false

exception Equal_seam

(* In order, [prev] the extent just before the subtree. *)
let rec scan_seams eq prev = function
  | Leaf -> prev
  | Node n as node ->
      (match scan_seams eq prev n.l with
      | Node p when p.hi = n.lo && eq p.v n.v -> raise_notrace Equal_seam
      | _ -> ());
      scan_seams eq node n.r

let seams_equal ~eq t sub =
  match (leftmost sub.m, rightmost sub.m) with
  | Node first, Node last -> (
      equal_at ~eq t first.lo || equal_at ~eq t last.hi
      ||
      match scan_seams eq Leaf sub.m with
      | _ -> false
      | exception Equal_seam -> true)
  | _ -> false

let filter f t =
  fold
    (fun (iv : Interval.t) v acc ->
      if f iv v then acc else { m = remove_key iv.lo acc.m; n = acc.n - 1 })
    t t

let check_invariants t =
  let prev_hi = ref 0 in
  let rec walk = function
    | Leaf -> 0
    | Node n ->
        let cl = walk n.l in
        assert (n.lo < n.hi);
        assert (n.lo >= !prev_hi);
        prev_hi := n.hi;
        let cr = walk n.r in
        let hl = height n.l and hr = height n.r in
        assert (n.h = max hl hr + 1);
        assert (abs (hl - hr) <= 2);
        cl + 1 + cr
  in
  assert (walk t.m = t.n)
