(* An AVL tree specialised to disjoint extents, persistent, with
   transient handles that edit the nodes they own in place.  Each node
   carries its extent [lo, hi) and value inline, keyed by [lo], plus its
   height and its owner.  Invariants: in order, the extents are sorted
   and pairwise disjoint; sibling heights differ by at most 2 (the
   balance Stdlib's Map keeps).  The entry count is tracked beside the
   tree so [cardinal] is O(1) — the data server's cleanup trigger reads
   it on every flush RPC.

   Ownership.  [h] packs the height into its low [hbits] bits and an
   owner id above them, so ownership costs a node no word.  Every edit
   runs under an owner [o], kept shifted as it is stored: a node
   carrying [o] is edited in place, any other is copied once into [o]'s
   ownership ([attach]).  Ids come from one counter and are never
   reused.  A handle keeps its id until [freeze] hands its tree out,
   then takes a fresh one, so the nodes carrying its id are reachable
   from its own tree only.  A persistent operation runs under an id of
   its own, used once: it edits in place only nodes it made itself, as
   when a rotation meets a node it has just copied.  Every node whose
   children change is rebuilt under [o], so the nodes carrying a
   handle's id form a cap at the top of its tree: below a node of any
   other owner, none carries it. *)
type 'a tree =
  | Leaf
  | Node of {
      mutable l : 'a tree;
      lo : int;
      hi : int;
      v : 'a;
      mutable r : 'a tree;
      mutable h : int;
    }

type 'a t = { m : 'a tree; n : int }

(* A handle: the tree it edits, its extent count and its owner. *)
type 'a transient = {
  mutable root : 'a tree;
  mutable size : int;
  mutable own : int;
}

let hbits = 8
let hmask = (1 lsl hbits) - 1
let owners = Atomic.make 0

(* Id 0 is no one's: [release] hands nodes to it. *)
let fresh_owner () = (Atomic.fetch_and_add owners 1 + 1) lsl hbits

let empty = { m = Leaf; n = 0 }
let is_empty t = t.n = 0
let cardinal t = t.n

let height = function Leaf -> 0 | Node { h; _ } -> h land hmask

let node o l lo hi v r =
  let hl = height l and hr = height r in
  Node { l; lo; hi; v; r; h = (if hl >= hr then hl + 1 else hr + 1) lor o }

(* [t]'s extent over the children [l] and [r], of heights [hl] and
   [hr]: [t] itself, edited in place, when [o] owns it, else a copy
   owned by [o]. *)
let attach o t l hl r hr =
  match t with
  | Node n when n.h land lnot hmask = o ->
      if n.l != l then n.l <- l;
      if n.r != r then n.r <- r;
      n.h <- (if hl >= hr then hl + 1 else hr + 1) lor o;
      t
  | Node n ->
      Node { l; lo = n.lo; hi = n.hi; v = n.v; r;
             h = (if hl >= hr then hl + 1 else hr + 1) lor o }
  | Leaf -> assert false

let rebuild o t l r = attach o t l (height l) r (height r)

(* Stdlib Map's rebalancing step, [t]'s extent over [l] and [r]: they
   are balanced and their heights differ by at most 3.  Every field a
   rotation reads is bound before the first node is edited. *)
let bal o t l r =
  let hl = height l and hr = height r in
  if hl > hr + 2 then
    match l with
    | Node { l = ll; r = lr; _ } -> (
        if height ll >= height lr then rebuild o l ll (rebuild o t lr r)
        else
          match lr with
          | Node { l = lrl; r = lrr; _ } ->
              let a = rebuild o l ll lrl in
              let b = rebuild o t lrr r in
              rebuild o lr a b
          | Leaf -> assert false)
    | Leaf -> assert false
  else if hr > hl + 2 then
    match r with
    | Node { l = rl; r = rr; _ } -> (
        if height rr >= height rl then rebuild o r (rebuild o t l rl) rr
        else
          match rl with
          | Node { l = rll; r = rlr; _ } ->
              let a = rebuild o t l rll in
              let b = rebuild o r rlr rr in
              rebuild o rl a b
          | Leaf -> assert false)
    | Leaf -> assert false
  else attach o t l hl r hr

exception Overlap

(* Gap insert in one descent.  Every subtree the descent leaves holds
   only extents ending at or before [lo] or starting at or past [hi]:
   at a node ending at or before [lo], its left subtree ends before it,
   and symmetrically on the right.  In particular [lo]'s in-order
   neighbours both lie on the path.  So either a visited node meets
   [lo, hi), and the descent bails out with [Overlap] before any node
   is edited, or it reaches a leaf and the extent lies in a gap.  Under
   an owner of the whole path, that is one new node. *)
let rec insert o lo hi v = function
  | Leaf -> node o Leaf lo hi v Leaf
  | Node n as t ->
      if hi <= n.lo then bal o t (insert o lo hi v n.l) n.r
      else if lo >= n.hi then bal o t n.l (insert o lo hi v n.r)
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

(* The first extent meeting [lo, hi), or [Leaf].  Below a node that
   meets the range only its left subtree can hold an earlier one, and
   every extent there starts before [hi]: one path. *)
let rec first_meeting lo hi = function
  | Leaf -> Leaf
  | Node n as t -> (
      if n.lo >= hi then first_meeting lo hi n.l
      else if n.hi <= lo then first_meeting lo hi n.r
      else match first_meeting lo hi n.l with Leaf -> t | first -> first)

let rec leftmost = function
  | Node { l = Leaf; _ } as t -> t
  | Node { l; _ } -> leftmost l
  | Leaf -> Leaf

let rec rightmost = function
  | Node { r = Leaf; _ } as t -> t
  | Node { r; _ } -> rightmost r
  | Leaf -> Leaf

(* [x], a node without children, put before (after) every extent. *)
let rec add_min o x = function
  | Leaf -> x
  | Node n as t -> bal o t (add_min o x n.l) n.r

let rec add_max o x = function
  | Leaf -> x
  | Node n as t -> bal o t n.l (add_max o x n.r)

(* Stdlib Map's join: every extent of [l] lies before [m]'s, every one
   of [r] after it, and their heights are arbitrary.  [m] is a node out
   of any tree, whose children are dropped.  Walks down the taller side
   to a subtree the other matches, so O(|hl - hr| + 1). *)
let rec join o l m r =
  match (l, r) with
  | Leaf, _ -> add_min o (rebuild o m Leaf Leaf) r
  | _, Leaf -> add_max o (rebuild o m Leaf Leaf) l
  | Node ln, Node rn ->
      let hl = ln.h land hmask and hr = rn.h land hmask in
      if hl > hr + 2 then bal o l ln.l (join o ln.r m r)
      else if hr > hl + 2 then bal o r (join o l m rn.l) rn.r
      else attach o m l hl r hr

let rec remove_min o = function
  | Leaf -> Leaf
  | Node { l = Leaf; r; _ } -> r
  | Node n as t -> bal o t (remove_min o n.l) n.r

(* Every extent of [l] lies before every one of [r].  [remove_min]
   unlinks [r]'s first node without editing it, and [join] takes it. *)
let concat o l r =
  match leftmost r with Leaf -> l | m -> join o l m (remove_min o r)

(* [split o x t] is the extents before [x] and those after it, an
   extent straddling [x] clipped into one piece on each side, and
   whether there was one: at most one can straddle, and it lies on the
   path.  One descent, a [join] per level: O(log n). *)
let rec split o x = function
  | Leaf -> (Leaf, Leaf, false)
  | Node n as t ->
      if x <= n.lo then
        let ll, lr, clipped = split o x n.l in
        (ll, join o lr t n.r, clipped)
      else if x >= n.hi then
        let rl, rr, clipped = split o x n.r in
        (join o n.l t rl, rr, clipped)
      else
        ( add_max o (node o Leaf n.lo x n.v Leaf) n.l,
          add_min o (node o Leaf x n.hi n.v Leaf) n.r,
          true )

let rec count = function Leaf -> 0 | Node n -> count n.l + 1 + count n.r

let rec remove_key o k = function
  | Leaf -> Leaf
  | Node n as t -> (
      if k < n.lo then bal o t (remove_key o k n.l) n.r
      else if k > n.lo then bal o t n.l (remove_key o k n.r)
      else
        match leftmost n.r with
        | Leaf -> n.l
        | m ->
            let r = remove_min o n.r in
            bal o m n.l r)

(* Rewrite the extent starting at [k] as [lo, hi) -> [v], a new node in
   its place.  The caller keeps the order: no other extent meets the
   new one, none starts between [k] and [lo]. *)
let rec replace o k lo hi v = function
  | Leaf -> Leaf
  | Node n as t ->
      if k < n.lo then rebuild o t (replace o k lo hi v n.l) n.r
      else if k > n.lo then rebuild o t n.l (replace o k lo hi v n.r)
      else Node { l = n.l; lo; hi; v; r = n.r; h = (n.h land hmask) lor o }

(* Hand the nodes [o] owns in a tree taken out of its handle to no one:
   they are the cap at its top, so the walk stops at the first node of
   another owner. *)
let rec release o = function
  | Node n when n.h land lnot hmask = o ->
      n.h <- n.h land hmask;
      release o n.l;
      release o n.r
  | Leaf | Node _ -> ()

(* ------------------------------------------------------------------ *)
(* Edits on a handle.  A persistent operation runs them on a handle of *)
(* its own ([edit]) and keeps the result ([result]).                   *)
(* ------------------------------------------------------------------ *)

let edit t = { root = t.m; size = t.n; own = fresh_owner () }
let result t h = if h.root == t.m then t else { m = h.root; n = h.size }

(* Clear [lo, hi), one edit per extent met, first to last: one that
   sticks out on the left is shortened, one that sticks out on the
   right is rekeyed (nothing starts inside it), one that sticks out on
   both sides is shortened and its right part inserted into the gap
   that leaves, and the rest are removed by key.  Each next extent is
   found afresh past the last one's end, so no walk spans an edit.  A
   span covering every extent leaves nothing: the client's
   whole-stripe flush [0, EOF). *)
let remove_span h lo hi =
  match (leftmost h.root, rightmost h.root) with
  | Leaf, _ | _, Leaf -> ()
  | Node first, Node last when lo <= first.lo && last.hi <= hi ->
      h.root <- Leaf;
      h.size <- 0
  | Node _, Node _ ->
      let o = h.own in
      let rec go pos =
        match first_meeting pos hi h.root with
        | Leaf -> ()
        | Node n ->
            let l = n.lo and e = n.hi and w = n.v in
            if l < lo then begin
              h.root <- replace o l l lo w h.root;
              if e > hi then begin
                h.root <- insert o hi e w h.root;
                h.size <- h.size + 1
              end
            end
            else if e > hi then h.root <- replace o l hi e w h.root
            else begin
              h.root <- remove_key o l h.root;
              h.size <- h.size - 1
            end;
            if e < hi then go e
      in
      go lo

let set_h h lo hi v =
  (match insert h.own lo hi v h.root with
  | root -> h.root <- root
  | exception Overlap ->
      remove_span h lo hi;
      h.root <- insert h.own lo hi v h.root);
  h.size <- h.size + 1

(* Sub-ranges of [iv] where the new value wins over [m]'s extents: gaps,
   plus covered parts whose old value loses to [keep_new].  Walked right
   to left, [pos] is the start of what is already decided. *)
let won_over m (iv : Interval.t) ~keep_new =
  let won = ref [] and pos = ref iv.hi in
  let push lo hi = if lo < hi then won := Interval.v ~lo ~hi :: !won in
  fold_desc iv.lo iv.hi
    (fun l h w () ->
      let lo = max l iv.lo and hi = min h iv.hi in
      push hi !pos;
      if keep_new ~old:w then push lo hi;
      pos := lo)
    m ();
  push iv.lo !pos;
  !won

let merge_h h (iv : Interval.t) v ~keep_new =
  match insert h.own iv.lo iv.hi v h.root with
  | root ->
      (* All gap, the common case on both the client cache and the data
         server: the update set is the whole extent. *)
      h.root <- root;
      h.size <- h.size + 1;
      [ iv ]
  | exception Overlap ->
      let won = won_over h.root iv ~keep_new in
      List.iter (fun (seg : Interval.t) -> set_h h seg.lo seg.hi v) won;
      won

(* The general cut, two splits: the cut's own extents are counted,
   O(k), and the rest's count follows from the pieces the splits made. *)
let cut_tree o m n (iv : Interval.t) =
  let below, rest, cut_lo = split o iv.lo m in
  let inside, above, cut_hi = split o iv.hi rest in
  let k = count inside in
  (inside, k, concat o below above, n + Bool.to_int cut_lo + Bool.to_int cut_hi - k)

let cut_h h (iv : Interval.t) =
  match (leftmost h.root, rightmost h.root) with
  | Node first, Node last when iv.lo <= first.lo && last.hi <= iv.hi ->
      (* The whole tree goes, and the handle keeps no node: a fresh id
         frees what it owned, in O(1). *)
      let inside = { m = h.root; n = h.size } in
      h.root <- Leaf;
      h.size <- 0;
      h.own <- fresh_owner ();
      inside
  | _ when not (meets iv.lo iv.hi h.root) -> empty
  | _ ->
      let inside, k, rest, n = cut_tree h.own h.root h.size iv in
      h.root <- rest;
      h.size <- n;
      release h.own inside;
      { m = inside; n = k }

let span_tree m =
  match (leftmost m, rightmost m) with
  | Node first, Node last -> Some (Interval.v ~lo:first.lo ~hi:last.hi)
  | Leaf, _ | _, Leaf -> None

let set_all_h h sub =
  match span_tree sub.m with
  | None -> ()
  | Some _ when h.size = 0 ->
      h.root <- sub.m;
      h.size <- sub.n
  | Some s when sub.n > 1 && not (meets s.lo s.hi h.root) ->
      (* All gap: the tree splits where [sub] goes, and [sub]'s tree is
         joined in whole, so the result shares its nodes.  A single
         extent is cheaper to [set]: one descent, no split. *)
      let o = h.own in
      let below, above, _ = split o s.lo h.root in
      h.root <- concat o (concat o below sub.m) above;
      h.size <- h.size + sub.n
  | Some _ ->
      (* [sub] is persistent: none of its nodes is the handle's. *)
      let rec go = function
        | Leaf -> ()
        | Node n ->
            go n.l;
            set_h h n.lo n.hi n.v;
            go n.r
      in
      go sub.m

(* One in-order scan finds the runs of adjacent extents whose values
   [eq] their run head's: for each, the head's start, the run's end and
   value, and the absorbed starts.  Only those runs are edited: the
   absorbed starts are removed and the head is rewritten to span the
   run, so the extents are the ones a rebuild from the merged runs
   would give.  A scan that finds no run edits nothing. *)
let coalesce_runs ~eq m =
  match leftmost m with
  | Leaf -> []
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
      scan m;
      close ();
      !edits

let merge_runs h runs =
  List.iter
    (fun (lo, hi, v, keys) ->
      List.iter (fun k -> h.root <- remove_key h.own k h.root) keys;
      h.root <- replace h.own lo lo hi v h.root;
      h.size <- h.size - List.length keys)
    runs

(* ------------------------------------------------------------------ *)
(* Queries                                                            *)
(* ------------------------------------------------------------------ *)

let overlapping_tree m (iv : Interval.t) =
  fold_desc iv.lo iv.hi
    (fun l h v acc -> (Interval.v ~lo:(max l iv.lo) ~hi:(min h iv.hi), v) :: acc)
    m []

let iter_tree f m =
  let rec go = function
    | Leaf -> ()
    | Node n ->
        go n.l;
        f (Interval.v ~lo:n.lo ~hi:n.hi) n.v;
        go n.r
  in
  go m

let to_list_tree m =
  let rec go acc = function
    | Leaf -> acc
    | Node n -> go ((Interval.v ~lo:n.lo ~hi:n.hi, n.v) :: go acc n.r) n.l
  in
  go [] m

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

let equal_at_tree ~eq m pos =
  match (ending_at pos m, starting_at pos m) with
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

let seams_equal_tree ~eq m sub =
  match (leftmost sub.m, rightmost sub.m) with
  | Node first, Node last -> (
      equal_at_tree ~eq m first.lo || equal_at_tree ~eq m last.hi
      ||
      match scan_seams eq Leaf sub.m with
      | _ -> false
      | exception Equal_seam -> true)
  | _ -> false

(* [own] is the handle's id, 0 for a persistent map. *)
let check_tree ~own m n =
  let prev_hi = ref 0 in
  let rec walk ~in_cap = function
    | Leaf -> 0
    | Node nd ->
        let mine = own <> 0 && nd.h land lnot hmask = own in
        assert (in_cap || not mine);
        let cl = walk ~in_cap:mine nd.l in
        assert (nd.lo < nd.hi);
        assert (nd.lo >= !prev_hi);
        prev_hi := nd.hi;
        let cr = walk ~in_cap:mine nd.r in
        let hl = height nd.l and hr = height nd.r in
        assert (nd.h land hmask = max hl hr + 1);
        assert (abs (hl - hr) <= 2);
        cl + 1 + cr
  in
  assert (walk ~in_cap:true m = n)

(* ------------------------------------------------------------------ *)
(* The persistent map                                                 *)
(* ------------------------------------------------------------------ *)

let set t (iv : Interval.t) v =
  match insert (fresh_owner ()) iv.lo iv.hi v t.m with
  | m -> { m; n = t.n + 1 }
  | exception Overlap ->
      let h = edit t in
      remove_span h iv.lo iv.hi;
      h.root <- insert h.own iv.lo iv.hi v h.root;
      h.size <- h.size + 1;
      result t h

let remove t (iv : Interval.t) =
  let h = edit t in
  remove_span h iv.lo iv.hi;
  result t h

let find t off =
  let rec go = function
    | Leaf -> None
    | Node n ->
        if off < n.lo then go n.l else if off >= n.hi then go n.r else Some n.v
  in
  go t.m

let overlapping t iv = overlapping_tree t.m iv
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

let merge t (iv : Interval.t) v ~keep_new =
  match insert (fresh_owner ()) iv.lo iv.hi v t.m with
  | m -> ({ m; n = t.n + 1 }, [ iv ])
  | exception Overlap ->
      let won = won_over t.m iv ~keep_new in
      let h = edit t in
      List.iter (fun (seg : Interval.t) -> set_h h seg.lo seg.hi v) won;
      (result t h, won)

let span t = span_tree t.m

(* The whole map when the range covers it (the client's whole-stripe
   flush), nothing when the range meets no extent, and otherwise two
   splits. *)
let cut t (iv : Interval.t) =
  match (leftmost t.m, rightmost t.m) with
  | Node first, Node last when iv.lo <= first.lo && last.hi <= iv.hi ->
      (t, empty)
  | _ when not (meets iv.lo iv.hi t.m) -> (empty, t)
  | _ ->
      let inside, k, rest, n = cut_tree (fresh_owner ()) t.m t.n iv in
      ({ m = inside; n = k }, { m = rest; n })

let set_all t sub =
  if sub.n = 0 then t
  else if t.n = 0 then sub
  else
    let h = edit t in
    set_all_h h sub;
    result t h

(* The run, newest first, is built into a balanced tree from the top
   down: each subtree takes its right half off the front of the list
   (the larger offsets), then its root, then its left half.  The
   oldest extent is left over, and [join] puts it between the map and
   that tree, walking down the taller one: O(k + log n). *)
let append t run =
  match run with
  | [] -> t
  | _ :: _ ->
      let o = fresh_owner () in
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
          node o (build nl) iv.lo iv.hi v r
      in
      let sub = build (k - 1) in
      let first, v = next () in
      (match rightmost t.m with
      | Node last when last.hi > first.lo ->
          invalid_arg "Extent_map.append: run starts inside the map"
      | _ -> ());
      { m = join o t.m (node o Leaf first.lo first.hi v Leaf) sub; n = t.n + k }

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
        let below, above, _ = split (fresh_owner ()) lo t.m in
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

let iter f t = iter_tree f t.m
let to_list t = to_list_tree t.m
let of_list l = List.fold_left (fun t (iv, v) -> set t iv v) empty l

(* A scan that finds no run allocates no node and returns [t] itself. *)
let coalesce ~eq t =
  match coalesce_runs ~eq t.m with
  | [] -> t
  | runs ->
      let h = edit t in
      merge_runs h runs;
      result t h


(* [t] itself is walked while the handle's own copy is edited. *)
let filter f t =
  let h = edit t in
  iter
    (fun (iv : Interval.t) v ->
      if not (f iv v) then begin
        h.root <- remove_key h.own iv.lo h.root;
        h.size <- h.size - 1
      end)
    t;
  result t h

let check_invariants t = check_tree ~own:0 t.m t.n

(* ------------------------------------------------------------------ *)
(* Transient handles                                                  *)
(* ------------------------------------------------------------------ *)

module Transient = struct
  type 'a t = 'a transient

  let of_map m = { root = m.m; size = m.n; own = fresh_owner () }

  let freeze h =
    let m = { m = h.root; n = h.size } in
    h.own <- fresh_owner ();
    m

  let cardinal h = h.size
  let set h (iv : Interval.t) v = set_h h iv.lo iv.hi v
  let remove h (iv : Interval.t) = remove_span h iv.lo iv.hi
  let merge = merge_h
  let cut = cut_h
  let set_all = set_all_h
  let coalesce ~eq h = merge_runs h (coalesce_runs ~eq h.root)
  let overlaps h (iv : Interval.t) = meets iv.lo iv.hi h.root
  let overlapping h iv = overlapping_tree h.root iv
  let equal_at ~eq h pos = equal_at_tree ~eq h.root pos
  let seams_equal ~eq h sub = seams_equal_tree ~eq h.root sub
  let iter f h = iter_tree f h.root
  let to_list h = to_list_tree h.root
  let check_invariants h = check_tree ~own:h.own h.root h.size
end
