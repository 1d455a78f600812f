module Int_map = Map.Make (Int)

(* Keyed by extent start; each binding [lo -> (hi, v)] is the extent
   [lo, hi) carrying [v].  Invariant: extents are pairwise disjoint.
   The entry count is tracked incrementally so [cardinal] is O(1) —
   the data server's cleanup trigger reads it on every flush RPC. *)
type 'a t = { m : (int * 'a) Int_map.t; n : int }

let empty = { m = Int_map.empty; n = 0 }
let is_empty t = Int_map.is_empty t.m
let cardinal t = t.n

(* Extents intersecting [lo, hi), unclipped, in offset order: the one
   starting at or below [lo] if it reaches past [lo], then each next
   start below [hi], one O(log n) probe per extent. *)
let raw_overlapping t lo hi =
  let rec from k acc =
    match Int_map.find_first_opt (fun k' -> k' > k) t.m with
    | Some (l, (h, v)) when l < hi -> from l ((l, h, v) :: acc)
    | Some _ | None -> List.rev acc
  in
  from lo
    (match Int_map.find_last_opt (fun k -> k <= lo) t.m with
    | Some (l, (h, v)) when h > lo -> [ (l, h, v) ]
    | Some _ | None -> [])

let remove_span t lo hi =
  match raw_overlapping t lo hi with
  | [] -> t
  | ov ->
      let m = List.fold_left (fun m (l, _, _) -> Int_map.remove l m) t.m ov in
      let n = t.n - List.length ov in
      let m, n =
        List.fold_left
          (fun (m, n) (l, h, w) ->
            let m, n =
              if l < lo then (Int_map.add l (lo, w) m, n + 1) else (m, n)
            in
            if h > hi then (Int_map.add hi (h, w) m, n + 1) else (m, n))
          (m, n) ov
      in
      { m; n }

let add_gap t (iv : Interval.t) v =
  { m = Int_map.add iv.lo (iv.hi, v) t.m; n = t.n + 1 }

let set t iv v = add_gap (remove_span t iv.Interval.lo iv.Interval.hi) iv v

let remove t (iv : Interval.t) = remove_span t iv.lo iv.hi

let find t off =
  match Int_map.find_last_opt (fun k -> k <= off) t.m with
  | Some (_, (h, v)) when h > off -> Some v
  | Some _ | None -> None

let overlapping t (iv : Interval.t) =
  raw_overlapping t iv.lo iv.hi
  |> List.map (fun (l, h, v) ->
         (Interval.v ~lo:(max l iv.lo) ~hi:(min h iv.hi), v))

let covered m (iv : Interval.t) =
  let rec loop pos = function
    | [] -> pos >= iv.hi
    | ((e : Interval.t), _) :: rest ->
        if e.lo > pos then false else loop (max pos e.hi) rest
  in
  loop iv.lo (overlapping m iv)

let merge m (iv : Interval.t) v ~keep_new =
  match raw_overlapping m iv.lo iv.hi with
  | [] ->
      (* All gap, the common case on both the client cache and the data
         server: [set] would find nothing to remove. *)
      (add_gap m iv v, [ iv ])
  | ov ->
      (* Sub-ranges of [iv] where the new value wins: gaps, plus covered
         parts whose old value loses to [keep_new]. *)
      let won = ref [] in
      let push lo hi = if lo < hi then won := Interval.v ~lo ~hi :: !won in
      let pos =
        List.fold_left
          (fun pos (l, h, w) ->
            let lo = max l iv.lo and hi = min h iv.hi in
            push pos lo;
            if keep_new ~old:w then push lo hi;
            hi)
          iv.lo ov
      in
      push pos iv.hi;
      let won = List.rev !won in
      (List.fold_left (fun m seg -> set m seg v) m won, won)

let fold f t acc =
  Int_map.fold (fun lo (hi, v) acc -> f (Interval.v ~lo ~hi) v acc) t.m acc

let iter f t = Int_map.iter (fun lo (hi, v) -> f (Interval.v ~lo ~hi) v) t.m
let to_list t = List.rev (fold (fun iv v acc -> (iv, v) :: acc) t [])
let of_list l = List.fold_left (fun t (iv, v) -> set t iv v) empty l

(* One in-order scan finds the runs of adjacent extents whose values
   [eq] their run head's.  Only those runs are edited: the absorbed
   starts are removed and the head is rewritten to span the run, so the
   bindings are the ones a rebuild from the merged runs would give.  A
   scan that finds no run allocates nothing and returns [t] itself. *)
let coalesce ~eq t =
  match Int_map.min_binding_opt t.m with
  | None -> t
  | Some (lo0, (hi0, v0)) ->
      (* The open run: head start and value, end, absorbed starts. *)
      let head_lo = ref lo0 and head_v = ref v0 and run_hi = ref hi0 in
      let absorbed = ref [] and edits = ref [] in
      let close () =
        match !absorbed with
        | [] -> ()
        | keys ->
            edits := (!head_lo, !run_hi, !head_v, keys) :: !edits;
            absorbed := []
      in
      Int_map.iter
        (fun lo (hi, v) ->
          if lo = !run_hi && eq !head_v v then begin
            absorbed := lo :: !absorbed;
            run_hi := hi
          end
          else begin
            close ();
            head_lo := lo;
            head_v := v;
            run_hi := hi
          end)
        t.m;
      close ();
      List.fold_left
        (fun t (lo, hi, v, keys) ->
          let m = List.fold_left (fun m k -> Int_map.remove k m) t.m keys in
          { m = Int_map.add lo (hi, v) m; n = t.n - List.length keys })
        t !edits

let filter f t =
  let m = Int_map.filter (fun lo (hi, v) -> f (Interval.v ~lo ~hi) v) t.m in
  { m; n = Int_map.cardinal m }

let check_invariants t =
  let _ =
    Int_map.fold
      (fun lo (hi, _) prev_hi ->
        assert (lo < hi);
        assert (lo >= prev_hi);
        hi)
      t.m 0
  in
  assert (t.n = Int_map.cardinal t.m)

let pp pp_v ppf m =
  Format.fprintf ppf "@[<v>";
  iter (fun iv v -> Format.fprintf ppf "%a -> %a@," Interval.pp iv pp_v v) m;
  Format.fprintf ppf "@]"
