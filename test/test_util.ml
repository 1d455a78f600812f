(* Unit and property tests for the interval / extent-map / content
   substrate (lib/util). *)

open Ccpfs_util

let iv lo hi = Interval.v ~lo ~hi

(* ------------------------------------------------------------------ *)
(* Interval                                                            *)
(* ------------------------------------------------------------------ *)

let test_interval_basic () =
  let a = iv 0 10 and b = iv 5 15 and c = iv 10 20 in
  Alcotest.(check int) "length" 10 (Interval.length a);
  Alcotest.(check bool) "overlaps" true (Interval.overlaps a b);
  Alcotest.(check bool) "adjacent do not overlap" false (Interval.overlaps a c);
  Alcotest.(check bool) "adjacent touch" true (Interval.touches a c);
  Alcotest.(check bool) "contains" true (Interval.contains (iv 0 20) b);
  Alcotest.(check bool) "not contains" false (Interval.contains b (iv 0 20));
  Alcotest.(check bool) "mem lo" true (Interval.mem a 0);
  Alcotest.(check bool) "mem hi excluded" false (Interval.mem a 10)

let test_interval_inter_hull () =
  let a = iv 0 10 and b = iv 5 15 in
  (match Interval.inter a b with
  | Some i -> Alcotest.(check bool) "inter" true (Interval.equal i (iv 5 10))
  | None -> Alcotest.fail "expected intersection");
  Alcotest.(check bool) "disjoint inter" true
    (Interval.inter (iv 0 5) (iv 5 10) = None);
  Alcotest.(check bool) "hull" true (Interval.equal (Interval.hull a b) (iv 0 15))

let test_interval_align () =
  let a = iv 5 6001 in
  let al = Interval.align ~page:4096 a in
  Alcotest.(check bool) "aligned" true (Interval.equal al (iv 0 8192));
  let e = Interval.to_eof ~lo:5000 in
  let ae = Interval.align ~page:4096 e in
  Alcotest.(check int) "eof preserved" Interval.eof ae.Interval.hi;
  Alcotest.(check int) "lo aligned down" 4096 ae.Interval.lo

let test_interval_invalid () =
  Alcotest.check_raises "hi<=lo" (Invalid_argument "Interval.v: hi <= lo")
    (fun () -> ignore (iv 5 5));
  Alcotest.check_raises "neg" (Invalid_argument "Interval.v: negative lo")
    (fun () -> ignore (iv (-1) 5))

(* ------------------------------------------------------------------ *)
(* Extent_map                                                          *)
(* ------------------------------------------------------------------ *)

let em_of_list l = Extent_map.of_list (List.map (fun (lo, hi, v) -> (iv lo hi, v)) l)

let em_to_triples m =
  Extent_map.to_list m
  |> List.map (fun ((i : Interval.t), v) -> (i.lo, i.hi, v))

let triples = Alcotest.(list (triple int int int))

let test_em_set_disjoint () =
  let m = em_of_list [ (0, 10, 1); (20, 30, 2) ] in
  Extent_map.check_invariants m;
  Alcotest.check triples "two extents" [ (0, 10, 1); (20, 30, 2) ]
    (em_to_triples m)

let test_em_set_overwrite_middle () =
  let m = em_of_list [ (0, 30, 1); (10, 20, 2) ] in
  Extent_map.check_invariants m;
  Alcotest.check triples "split" [ (0, 10, 1); (10, 20, 2); (20, 30, 1) ]
    (em_to_triples m)

let test_em_set_overwrite_spanning () =
  let m = em_of_list [ (0, 10, 1); (20, 30, 2); (5, 25, 3) ] in
  Extent_map.check_invariants m;
  Alcotest.check triples "span" [ (0, 5, 1); (5, 25, 3); (25, 30, 2) ]
    (em_to_triples m)

let test_em_remove () =
  let m = em_of_list [ (0, 30, 1) ] in
  let m = Extent_map.remove m (iv 10 20) in
  Extent_map.check_invariants m;
  Alcotest.check triples "hole" [ (0, 10, 1); (20, 30, 1) ] (em_to_triples m)

let test_em_find () =
  let m = em_of_list [ (0, 10, 1); (20, 30, 2) ] in
  Alcotest.(check (option int)) "inside" (Some 1) (Extent_map.find m 5);
  Alcotest.(check (option int)) "gap" None (Extent_map.find m 15);
  Alcotest.(check (option int)) "boundary excluded" None (Extent_map.find m 10);
  Alcotest.(check (option int)) "boundary included" (Some 2) (Extent_map.find m 20)

let test_em_overlapping_clips () =
  let m = em_of_list [ (0, 10, 1); (10, 20, 2); (25, 30, 3) ] in
  let ov = Extent_map.overlapping m (iv 5 27) in
  let got = List.map (fun ((i : Interval.t), v) -> (i.lo, i.hi, v)) ov in
  Alcotest.check triples "clipped" [ (5, 10, 1); (10, 20, 2); (25, 27, 3) ] got

let test_em_covered () =
  let m = em_of_list [ (0, 10, 1); (10, 20, 2) ] in
  Alcotest.(check bool) "covered" true (Extent_map.covered m (iv 0 20));
  Alcotest.(check bool) "partial" false (Extent_map.covered m (iv 0 21));
  let m = Extent_map.remove m (iv 5 6) in
  Alcotest.(check bool) "hole detected" false (Extent_map.covered m (iv 0 20))

let test_em_overlaps () =
  let m = em_of_list [ (10, 20, 1); (30, 40, 2) ] in
  List.iter
    (fun (lo, hi, want) ->
      Alcotest.(check bool)
        (Printf.sprintf "[%d,%d)" lo hi)
        want
        (Extent_map.overlaps m (iv lo hi)))
    [
      (0, 10, false); (20, 30, false); (40, 50, false); (9, 11, true);
      (19, 21, true); (29, 31, true); (0, 100, true); (15, 16, true);
    ];
  Alcotest.(check bool) "empty map" false
    (Extent_map.overlaps Extent_map.empty (iv 0 100))

let test_em_merge_update_set () =
  (* The paper's Fig. 15 example: extent cache holds [0,2K)@8 via
     merging D[0,4K,8]; then D[0,2K,7], D[2K,4K,9], D[4K,8K,9] arrive. *)
  let k = 1024 in
  let m = em_of_list [ (0, 4 * k, 8) ] in
  let keep_new sn ~old = sn > old in
  let m, won1 = Extent_map.merge m (iv 0 (2 * k)) 7 ~keep_new:(keep_new 7) in
  Alcotest.(check int) "old data discarded" 0 (List.length won1);
  let m, won2 =
    Extent_map.merge m (iv (2 * k) (4 * k)) 9 ~keep_new:(keep_new 9)
  in
  Alcotest.(check (list (pair int int)))
    "update set covers overwritten part"
    [ (2 * k, 4 * k) ]
    (List.map (fun (i : Interval.t) -> (i.lo, i.hi)) won2);
  let m, won3 =
    Extent_map.merge m (iv (4 * k) (8 * k)) 9 ~keep_new:(keep_new 9)
  in
  Alcotest.(check (list (pair int int)))
    "gap filled" [ (4 * k, 8 * k) ]
    (List.map (fun (i : Interval.t) -> (i.lo, i.hi)) won3);
  Extent_map.check_invariants m;
  Alcotest.check triples "final cache"
    [ (0, 2 * k, 8); (2 * k, 4 * k, 9); (4 * k, 8 * k, 9) ]
    (em_to_triples m)

let test_em_coalesce () =
  let m = em_of_list [ (0, 10, 1); (10, 20, 1); (20, 30, 2); (40, 50, 2) ] in
  let m = Extent_map.coalesce ~eq:Int.equal m in
  Extent_map.check_invariants m;
  Alcotest.check triples "merged adjacent equal"
    [ (0, 20, 1); (20, 30, 2); (40, 50, 2) ]
    (em_to_triples m)

let test_em_filter () =
  let m = em_of_list [ (0, 10, 1); (10, 20, 2); (20, 30, 3) ] in
  let m = Extent_map.filter (fun _ v -> v <> 2) m in
  Alcotest.check triples "filtered" [ (0, 10, 1); (20, 30, 3) ] (em_to_triples m)

(* Model-based property test: an extent map must agree with a naive
   per-byte array under a random sequence of set/remove operations. *)
let prop_em_matches_model =
  let open QCheck in
  let bound = 64 in
  let op =
    Gen.(
      oneof
        [
          map3 (fun lo len v -> `Set (lo, len, v)) (int_bound (bound - 2))
            (int_range 1 8) (int_bound 5);
          map2 (fun lo len -> `Remove (lo, len)) (int_bound (bound - 2))
            (int_range 1 8);
        ])
  in
  let print_op = function
    | `Set (lo, len, v) -> Printf.sprintf "set[%d,+%d)=%d" lo len v
    | `Remove (lo, len) -> Printf.sprintf "rm[%d,+%d)" lo len
  in
  Test.make ~name:"extent_map agrees with per-byte model" ~count:300
    (make ~print:Print.(list print_op) (Gen.list_size (Gen.int_range 1 40) op))
    (fun ops ->
      let model = Array.make bound None in
      let m =
        List.fold_left
          (fun m op ->
            match op with
            | `Set (lo, len, v) ->
                let hi = min bound (lo + len) in
                for i = lo to hi - 1 do
                  model.(i) <- Some v
                done;
                Extent_map.set m (iv lo hi) v
            | `Remove (lo, len) ->
                let hi = min bound (lo + len) in
                for i = lo to hi - 1 do
                  model.(i) <- None
                done;
                Extent_map.remove m (iv lo hi))
          Extent_map.empty ops
      in
      Extent_map.check_invariants m;
      let ok = ref true in
      for i = 0 to bound - 1 do
        if Extent_map.find m i <> model.(i) then ok := false
      done;
      !ok)

let prop_em_merge_matches_model =
  let open QCheck in
  let bound = 64 in
  let op =
    Gen.(
      map3
        (fun lo len sn -> (lo, len, sn))
        (int_bound (bound - 2)) (int_range 1 10) (int_bound 10))
  in
  Test.make ~name:"merge keeps max SN per byte" ~count:300
    (make
       ~print:
         Print.(list (fun (l, n, s) -> Printf.sprintf "w[%d,+%d)sn%d" l n s))
       (Gen.list_size (Gen.int_range 1 40) op))
    (fun writes ->
      let model = Array.make bound (-1) in
      let m =
        List.fold_left
          (fun m (lo, len, sn) ->
            let hi = min bound (lo + len) in
            for i = lo to hi - 1 do
              if sn > model.(i) then model.(i) <- sn
            done;
            let m, _ =
              Extent_map.merge m (iv lo hi) sn ~keep_new:(fun ~old -> sn > old)
            in
            m)
          Extent_map.empty writes
      in
      Extent_map.check_invariants m;
      let ok = ref true in
      for i = 0 to bound - 1 do
        let got = Option.value (Extent_map.find m i) ~default:(-1) in
        if got <> model.(i) then ok := false
      done;
      !ok)

let gen_interval bound =
  QCheck.Gen.(
    map2
      (fun lo len -> iv lo (lo + len))
      (int_bound (bound - 2)) (int_range 1 16))

let print_iv (a : Interval.t) = Interval.to_string a

let prop_interval_inter_hull_algebra =
  let open QCheck in
  Test.make ~name:"inter/hull/overlaps/align agree" ~count:500
    (make
       ~print:(fun (a, b) -> print_iv a ^ " " ^ print_iv b)
       Gen.(pair (gen_interval 64) (gen_interval 64)))
    (fun (a, b) ->
      let h = Interval.hull a b in
      Interval.contains h a && Interval.contains h b
      && Interval.overlaps a b = Option.is_some (Interval.inter a b)
      && (match Interval.inter a b with
         | Some i -> Interval.contains a i && Interval.contains b i
         | None -> true)
      && Interval.contains (Interval.align ~page:8 a) a)

(* ------------------------------------------------------------------ *)
(* Ranges                                                              *)
(* ------------------------------------------------------------------ *)

let pairs (r : Ranges.t) =
  List.map (fun (i : Interval.t) -> (i.lo, i.hi)) (r :> Interval.t list)

let test_ranges_examples () =
  let rs = Ranges.of_list in
  Alcotest.(check (list (pair int int)))
    "of_list sorts and merges touching ranges"
    [ (0, 30); (40, 50) ]
    (pairs (rs [ iv 20 30; iv 0 10; iv 10 20; iv 40 50 ]));
  let a = rs [ iv 0 10; iv 20 30 ] in
  Alcotest.(check bool) "interleaved, touching but disjoint" false
    (Ranges.overlaps a (rs [ iv 10 20 ]));
  Alcotest.(check bool) "hit in the second range" true
    (Ranges.overlaps a (rs [ iv 25 26 ]));
  Alcotest.check_raises "no empty range set"
    (Invalid_argument "Ranges.of_list: empty range list") (fun () ->
      ignore (Ranges.of_list []))

(* Every [Ranges] function against the O(n^2) byte-set oracle, on raw
   lists that are unsorted and full of overlapping and touching ranges:
   the shapes a canonicalizing constructor must absorb. *)
let prop_ranges_match_byte_oracle =
  let open QCheck in
  (* [gen_interval 64] ends below 64 + 16. *)
  let raw = Gen.list_size (Gen.int_range 1 8) (gen_interval 64) in
  let bound = 80 in
  let bytes l =
    Array.init bound (fun b -> List.exists (fun x -> Interval.mem x b) l)
  in
  let subset x y = Array.for_all2 (fun a b -> (not a) || b) x y in
  let shared x y = Array.exists2 ( && ) x y in
  let rec canonical = function
    | (x : Interval.t) :: (y :: _ as rest) -> x.hi < y.lo && canonical rest
    | [ _ ] -> true
    | [] -> false
  in
  Test.make ~name:"Ranges agrees with the byte-set oracle on raw lists"
    ~count:500
    (make
       ~print:Print.(pair (list print_iv) (list print_iv))
       Gen.(pair raw raw))
    (fun (a, b) ->
      let ra = Ranges.of_list a and rb = Ranges.of_list b in
      let la = (ra :> Interval.t list) in
      let ba = bytes a and bb = bytes b in
      let hull = Ranges.hull ra in
      bytes la = ba && canonical la
      && Ranges.of_list (List.rev a) = ra
      && Ranges.overlaps ra rb = shared ba bb
      && Ranges.overlaps rb ra = shared ba bb
      && Ranges.union ra rb = Ranges.of_list (a @ b)
      && Ranges.union rb ra = Ranges.of_list (a @ b)
      && Ranges.covers ra rb = subset bb ba
      && Ranges.covers rb ra = subset ba bb
      && Array.for_all2 ( = ) (bytes [ hull ])
           (Array.init bound (fun i ->
                Array.exists Fun.id (Array.sub ba 0 (i + 1))
                && Array.exists Fun.id (Array.sub ba i (bound - i)))))

(* The pairwise-disjointness invariant under random inserts is what makes
   every extent store trustworthy; check_invariants asserts sortedness
   and disjointness of the underlying list. *)
let prop_em_disjoint_after_inserts =
  let open QCheck in
  Test.make ~name:"entries stay disjoint under random set" ~count:300
    (make
       ~print:Print.(list print_iv)
       Gen.(list_size (int_range 1 40) (gen_interval 64)))
    (fun ivs ->
      let m =
        List.fold_left
          (fun (m, v) a -> (Extent_map.set m a v, v + 1))
          (Extent_map.empty, 0) ivs
        |> fst
      in
      Extent_map.check_invariants m;
      List.for_all
        (fun ((x, _), rest) ->
          List.for_all (fun (y, _) -> not (Interval.overlaps x y)) rest)
        (let rec tails = function
           | [] -> []
           | x :: r -> (x, r) :: tails r
         in
         tails (Extent_map.to_list m)))

let prop_em_coalesce_preserves =
  let open QCheck in
  Test.make ~name:"coalesce preserves per-byte values" ~count:300
    (make
       ~print:Print.(list (pair print_iv int))
       Gen.(list_size (int_range 1 30) (pair (gen_interval 64) (int_bound 3))))
    (fun entries ->
      let m =
        List.fold_left (fun m (a, v) -> Extent_map.set m a v) Extent_map.empty
          entries
      in
      let c = Extent_map.coalesce ~eq:Int.equal m in
      Extent_map.check_invariants c;
      let ok = ref true in
      for i = 0 to 80 do
        if Extent_map.find m i <> Extent_map.find c i then ok := false
      done;
      !ok)

(* Exact-structure differential against [Ref_extent_map], the map before
   its write path was made incremental.  After every step of a random
   set/remove/merge/coalesce script both must hold the same bindings and
   cardinal, return the same update set from [merge], and answer the
   same [overlapping], [overlaps] and [covered] queries.  Values come
   from a small set so equal neighbours, and so merging coalesce passes,
   are common; merges land both in gaps and over existing extents. *)
let prop_em_differential =
  let open QCheck in
  let bound = 96 in
  let range = Gen.(pair (int_bound (bound - 2)) (int_range 1 12)) in
  let op =
    Gen.(
      frequency
        [
          (3, map2 (fun r v -> `Set (r, v)) range (int_bound 2));
          (1, map (fun r -> `Remove r) range);
          (4, map2 (fun r v -> `Merge (r, v)) range (int_bound 3));
          (1, return `Coalesce);
        ])
  in
  let print_range (lo, len) = Printf.sprintf "[%d,+%d)" lo len in
  let print_op = function
    | `Set (r, v) -> Printf.sprintf "set%s=%d" (print_range r) v
    | `Remove r -> "rm" ^ print_range r
    | `Merge (r, v) -> Printf.sprintf "merge%s=%d" (print_range r) v
    | `Coalesce -> "coalesce"
  in
  let to_iv (lo, len) = iv lo (min bound (lo + len)) in
  let flat l = List.map (fun ((i : Interval.t), v) -> (i.lo, i.hi, v)) l in
  let flat_ivs l = List.map (fun (i : Interval.t) -> (i.lo, i.hi)) l in
  Test.make ~name:"extent_map structurally identical to the reference"
    ~count:500
    (make
       ~print:Print.(list (pair print_op print_range))
       Gen.(list_size (int_range 1 60) (pair op range)))
    (fun steps ->
      let step (m, r) (op, probe) =
        let m, r, won_ok =
          match op with
          | `Set (x, v) ->
              (Extent_map.set m (to_iv x) v, Ref_extent_map.set r (to_iv x) v, true)
          | `Remove x ->
              (Extent_map.remove m (to_iv x), Ref_extent_map.remove r (to_iv x), true)
          | `Merge (x, v) ->
              let keep_new ~old = v >= old in
              let m, won = Extent_map.merge m (to_iv x) v ~keep_new in
              let r, ref_won = Ref_extent_map.merge r (to_iv x) v ~keep_new in
              (m, r, flat_ivs won = flat_ivs ref_won)
          | `Coalesce ->
              ( Extent_map.coalesce ~eq:Int.equal m,
                Ref_extent_map.coalesce ~eq:Int.equal r,
                true )
        in
        Extent_map.check_invariants m;
        if
          not
            (won_ok
            && flat (Extent_map.to_list m) = flat (Ref_extent_map.to_list r)
            && Extent_map.cardinal m = Ref_extent_map.cardinal r
            && flat (Extent_map.overlapping m (to_iv probe))
               = flat (Ref_extent_map.overlapping r (to_iv probe))
            && Extent_map.overlaps m (to_iv probe)
               = (Ref_extent_map.overlapping r (to_iv probe) <> [])
            && Extent_map.covered m (to_iv probe)
               = Ref_extent_map.covered r (to_iv probe))
        then
          Test.fail_reportf "diverged after %s (probe %s)" (print_op op)
            (print_range probe);
        (m, r)
      in
      ignore (List.fold_left step (Extent_map.empty, Ref_extent_map.empty) steps);
      true)

(* The same differential at the sizes the data server and the client
   cache reach, where the tree has many levels: runs of ascending gap
   appends (adjacent or one byte apart, one value per run or
   alternating, so coalescing both merges and finds nothing), mixed
   with whole-range [0, EOF) removes (the client's whole-stripe flush),
   overwrite merges and coalescing passes.  After every step the maps
   must agree on the extents, the cardinal and the update set, and on
   [overlapping], [find], [covered], [overlaps] and [filter] at a probe
   placed relative to the current end. *)
let prop_em_differential_at_scale =
  let open QCheck in
  let op =
    Gen.(
      frequency
        [
          ( 6,
            map3
              (fun n (len, adjacent) v -> `Append (n, len, adjacent, v))
              (int_range 1 512)
              (pair (int_range 1 64) bool)
              (int_bound 2) );
          (1, return `Flush);
          ( 3,
            map3
              (fun at len v -> `Overwrite (at, len, v))
              (int_bound 1000) (int_range 1 20_000) (int_bound 3) );
          (1, return `Coalesce);
        ])
  in
  let print_op = function
    | `Append (n, len, adjacent, v) ->
        Printf.sprintf "append %dx%d%s v%d" n len
          (if adjacent then "" else " gapped")
          v
    | `Flush -> "flush"
    | `Overwrite (at, len, v) -> Printf.sprintf "overwrite @%d/1000+%d=%d" at len v
    | `Coalesce -> "coalesce"
  in
  let probe = Gen.(pair (int_bound 1000) (int_range 1 5_000)) in
  let print_probe (at, len) = Printf.sprintf "probe @%d/1000+%d" at len in
  let flat l = List.map (fun ((i : Interval.t), v) -> (i.lo, i.hi, v)) l in
  let flat_ivs l = List.map (fun (i : Interval.t) -> (i.lo, i.hi)) l in
  let keep_new v ~old = v >= old in
  let even _ v = v mod 2 = 0 in
  Test.make ~name:"extent_map matches the reference at thousands of extents"
    ~count:40
    (make
       ~print:Print.(list (pair print_op print_probe))
       Gen.(list_size (int_range 1 24) (pair op probe)))
    (fun steps ->
      let at frac tail = frac * (tail + 1) / 1000 in
      let step (m, r, tail) (op, (pat, plen)) =
        let (m, r, tail), won_ok =
          match op with
          | `Append (n, len, adjacent, v) ->
              let rec go k m r tail ok =
                if k = n then ((m, r, tail), ok)
                else
                  let lo = if adjacent then tail else tail + 1 in
                  let x = Interval.v ~lo ~hi:(lo + len) in
                  let v = if v = 2 then k mod 2 else v in
                  let m, won = Extent_map.merge m x v ~keep_new:(keep_new v) in
                  let r, ref_won =
                    Ref_extent_map.merge r x v ~keep_new:(keep_new v)
                  in
                  go (k + 1) m r (lo + len) (ok && flat_ivs won = flat_ivs ref_won)
              in
              go 0 m r tail true
          | `Flush ->
              let all = Interval.to_eof ~lo:0 in
              ((Extent_map.remove m all, Ref_extent_map.remove r all, tail), true)
          | `Overwrite (frac, len, v) ->
              let x = Interval.of_len ~lo:(at frac tail) ~len in
              let m, won = Extent_map.merge m x v ~keep_new:(keep_new v) in
              let r, ref_won = Ref_extent_map.merge r x v ~keep_new:(keep_new v) in
              ((m, r, max tail x.hi), flat_ivs won = flat_ivs ref_won)
          | `Coalesce ->
              ( ( Extent_map.coalesce ~eq:Int.equal m,
                  Ref_extent_map.coalesce ~eq:Int.equal r,
                  tail ),
                true )
        in
        Extent_map.check_invariants m;
        let q = Interval.of_len ~lo:(at pat tail) ~len:plen in
        let ref_ov = Ref_extent_map.overlapping r q in
        let agree =
          [
            ("update set", won_ok);
            ("extents", flat (Extent_map.to_list m) = flat (Ref_extent_map.to_list r));
            ("cardinal", Extent_map.cardinal m = Ref_extent_map.cardinal r);
            ("overlapping", flat (Extent_map.overlapping m q) = flat ref_ov);
            ("overlaps", Extent_map.overlaps m q = (ref_ov <> []));
            ("covered", Extent_map.covered m q = Ref_extent_map.covered r q);
            ( "find",
              List.for_all
                (fun off -> Extent_map.find m off = Ref_extent_map.find r off)
                [ q.lo; q.lo + (plen / 2); q.hi - 1; q.hi ] );
            ( "filter",
              let f = Extent_map.filter even m in
              Extent_map.check_invariants f;
              flat (Extent_map.to_list f)
              = flat (Ref_extent_map.to_list (Ref_extent_map.filter even r))
              && Extent_map.cardinal f
                 = Ref_extent_map.cardinal (Ref_extent_map.filter even r) );
          ]
        in
        List.iter
          (fun (what, ok) ->
            if not ok then
              Test.fail_reportf "%s diverged after %s (%s)" what (print_op op)
                (print_probe (pat, plen)))
          agree;
        (m, r, tail)
      in
      ignore
        (List.fold_left step (Extent_map.empty, Ref_extent_map.empty, 0) steps);
      true)

(* [cut], [set_all] and [split_nth] against the reference, where the
   reference cut is its clipped [overlapping] rebuilt by [set] beside
   its [remove], its [set_all] a fold of [set] and its [split_nth] a
   split of [to_list].  Maps of up to a few hundred extents are built
   from ascending runs (adjacent or one apart, so holes exist) and
   overwrites.  Each step is checked, extents, cardinal and
   [check_invariants] on every result, and the next step goes on from
   one of them:
   - a cut at a random range (clips at either end, a straddler cut at
     both ends), continuing from the rest or the cut, or from the two
     put back together;
   - a cut of a range that covers every extent: the map itself, and an
     empty rest; a cut in a hole or past the end: empty;
   - a union of a small map placed in a hole or past the end (the gap
     join) or over existing extents;
   - a split after the i-th extent, and the halves joined back. *)
let prop_em_cut_and_join =
  let open QCheck in
  let build =
    Gen.(
      list_size (int_range 0 12)
        (frequency
           [
             (3, map3 (fun n len gapped -> `Run (n, len, gapped))
                  (int_range 1 60) (int_range 1 8) bool);
             (1, map3 (fun at len v -> `Over (at, len, v))
                  (int_bound 999) (int_range 1 40) (int_bound 3));
           ]))
  in
  let op =
    Gen.(
      frequency
        [
          ( 4,
            map3
              (fun a b keep -> `Cut (a, b, keep))
              (int_bound 1100) (int_range 0 300) (int_bound 2) );
          (1, return `Cut_all);
          (1, map (fun a -> `Cut_hole a) (int_bound 999));
          ( 3,
            map3
              (fun a n gap -> `Union (a, n, gap))
              (int_bound 1100) (int_range 0 30) bool );
          (2, map (fun i -> `Split i) (int_range (-2) 400));
        ])
  in
  let print_build = function
    | `Run (n, len, g) -> Printf.sprintf "run %dx%d%s" n len (if g then " gapped" else "")
    | `Over (a, len, v) -> Printf.sprintf "over@%d/1000+%d=%d" a len v
  in
  let print_op = function
    | `Cut (a, b, k) -> Printf.sprintf "cut@%d/1000+%d keep%d" a b k
    | `Cut_all -> "cut all"
    | `Cut_hole a -> Printf.sprintf "cut hole@%d/1000" a
    | `Union (a, n, g) ->
        Printf.sprintf "union@%d/1000 %d%s" a n (if g then " in a gap" else "")
    | `Split i -> Printf.sprintf "split %d" i
  in
  let flat l = List.map (fun ((i : Interval.t), v) -> (i.lo, i.hi, v)) l in
  let same what m r =
    Extent_map.check_invariants m;
    if
      flat (Extent_map.to_list m) <> flat (Ref_extent_map.to_list r)
      || Extent_map.cardinal m <> Ref_extent_map.cardinal r
    then Test.fail_reportf "%s diverged from the reference" what
  in
  let ref_set_all r l = List.fold_left (fun r (x, v) -> Ref_extent_map.set r x v) r l in
  Test.make ~name:"cut, set_all and split_nth match the reference" ~count:300
    (make
       ~print:Print.(pair (list print_build) (list print_op))
       Gen.(pair build (list_size (int_range 1 16) op)))
    (fun (builds, ops) ->
      let tail m = match Extent_map.span m with Some s -> s.Interval.hi | None -> 0 in
      let at frac m = frac * (tail m + 1) / 1000 in
      let m, r =
        List.fold_left
          (fun (m, r) b ->
            match b with
            | `Run (n, len, gapped) ->
                let start = tail m in
                List.fold_left
                  (fun (m, r) k ->
                    let gap = Bool.to_int gapped in
                    let lo = start + (k * (len + gap)) + gap in
                    let x = iv lo (lo + len) in
                    (Extent_map.set m x k, Ref_extent_map.set r x k))
                  (m, r) (List.init n Fun.id)
            | `Over (a, len, v) ->
                let x = Interval.of_len ~lo:(at a m) ~len in
                (Extent_map.set m x v, Ref_extent_map.set r x v))
          (Extent_map.empty, Ref_extent_map.empty)
          builds
      in
      same "built map" m r;
      let step (m, r) op =
        match op with
        | `Cut (a, len, keep) ->
            let x = Interval.of_len ~lo:(at a m) ~len:(len + 1) in
            let inside, rest = Extent_map.cut m x in
            let ref_inside = Ref_extent_map.overlapping r x in
            let ref_rest = Ref_extent_map.remove r x in
            same "cut" inside (ref_set_all Ref_extent_map.empty ref_inside);
            same "cut rest" rest ref_rest;
            (match keep with
            | 0 -> (rest, ref_rest)
            | 1 -> (inside, ref_set_all Ref_extent_map.empty ref_inside)
            | _ ->
                let back = Extent_map.set_all rest inside in
                let ref_back = ref_set_all ref_rest ref_inside in
                same "cut put back" back ref_back;
                (back, ref_back))
        | `Cut_all ->
            let x = Interval.to_eof ~lo:0 in
            let inside, rest = Extent_map.cut m x in
            if inside != m || not (Extent_map.is_empty rest) then
              Test.fail_report "a covering cut must hand the map over";
            (m, r)
        | `Cut_hole a ->
            let x = iv (tail m + 1 + a) (tail m + 2 + a) in
            let inside, rest = Extent_map.cut m x in
            if rest != m || not (Extent_map.is_empty inside) then
              Test.fail_report "a cut meeting nothing must take nothing";
            (* and the first hole between two extents, if there is one *)
            let rec first_hole = function
              | ((x : Interval.t), _) :: (((y : Interval.t), _) :: _ as rest) ->
                  if x.hi < y.lo then Some (iv x.hi y.lo) else first_hole rest
              | _ -> None
            in
            Option.iter
              (fun hole ->
                let inside, rest = Extent_map.cut m hole in
                if rest != m || not (Extent_map.is_empty inside) then
                  Test.fail_report "a cut in a hole must take nothing")
              (first_hole (Extent_map.to_list m));
            (m, r)
        | `Union (a, n, gap) ->
            (* in a gap: the region is cleared first, so the span is a hole *)
            let lo = at a m in
            let sub_list =
              List.init n (fun k -> (iv (lo + (3 * k)) (lo + (3 * k) + 2), 10 + k))
            in
            let m, r =
              if gap && n > 0 then
                let hole = iv lo (lo + (3 * n)) in
                (Extent_map.remove m hole, Ref_extent_map.remove r hole)
              else (m, r)
            in
            let sub = Extent_map.of_list sub_list in
            let joined = Extent_map.set_all m sub in
            let ref_joined = ref_set_all r sub_list in
            same "set_all" joined ref_joined;
            (joined, ref_joined)
        | `Split i ->
            let a, b = Extent_map.split_nth m i in
            let l = Ref_extent_map.to_list r in
            let i' = Stdlib.max 0 (Stdlib.min i (List.length l)) in
            let part keep = ref_set_all Ref_extent_map.empty (List.filteri keep l) in
            same "split head" a (part (fun k _ -> k < i'));
            same "split tail" b (part (fun k _ -> k >= i'));
            let back = Extent_map.set_all a b in
            same "split joined back" back r;
            (back, r)
      in
      ignore (List.fold_left step (m, r) ops);
      true)

(* [append] against successive [set]s: a base map of random extents
   (overwrites included, so its tree is not the one a run would give),
   then a run past its end, gapped or back to back, given newest first
   as the client cache conses it.  The result must hold the same
   extents, be a valid tree with the right count, and a run that is
   out of order or starts inside the map must be refused. *)
let prop_em_append =
  let open QCheck in
  let base =
    Gen.(list_size (int_bound 40)
           (triple (int_bound 500) (int_range 1 30) small_nat))
  in
  let run =
    Gen.(list_size (int_bound 70) (pair (int_range 1 20) (int_bound 3)))
  in
  Test.make ~name:"append equals successive sets" ~count:300
    (make
       ~print:
         Print.(
           pair
             (list (triple int int int))
             (pair int (list (pair int int))))
       Gen.(pair base (pair (int_bound 3) run)))
    (fun (base, (start, run)) ->
      let m =
        List.fold_left
          (fun m (lo, len, v) -> Extent_map.set m (iv lo (lo + len)) v)
          Extent_map.empty base
      in
      let tail = match Extent_map.span m with Some s -> s.hi | None -> 0 in
      (* each extent [gap] past the one before, consed newest first *)
      let _, newest_first =
        List.fold_left
          (fun (pos, acc) (len, gap) ->
            let lo = pos + gap in
            (lo + len, (iv lo (lo + len), lo) :: acc))
          (tail + start, []) run
      in
      let ascending = List.rev newest_first in
      let got = Extent_map.append m newest_first in
      let want =
        List.fold_left (fun m (x, v) -> Extent_map.set m x v) m ascending
      in
      Extent_map.check_invariants got;
      let refused run =
        match Extent_map.append m run with
        | _ -> false
        | exception Invalid_argument _ -> true
      in
      Extent_map.to_list got = Extent_map.to_list want
      && Extent_map.cardinal got = Extent_map.cardinal m + List.length run
      && (match ascending with
         | _ :: _ :: _ -> refused ascending (* oldest first: out of order *)
         | _ -> true)
      &&
      match Extent_map.span m with
      | Some s when s.hi > 0 ->
          refused (newest_first @ [ (iv (s.hi - 1) s.hi, 0) ])
      | _ -> true)

(* The data server's ior-segmented shape at full size: 262,144
   ascending gap appends, each carrying its own value, all kept. *)
let test_em_ascending_appends () =
  let n = 262_144 in
  let m = ref Extent_map.empty in
  for k = 0 to n - 1 do
    let m', won =
      Extent_map.merge !m (iv (k * 16) ((k + 1) * 16)) k ~keep_new:(fun ~old:_ ->
          true)
    in
    if List.length won <> 1 then Alcotest.fail "append was not a gap";
    m := m';
    (* fail fast, before a broken balance makes the rest quadratic *)
    if k = 1023 then Extent_map.check_invariants !m
  done;
  Extent_map.check_invariants !m;
  Alcotest.(check int) "cardinal" n (Extent_map.cardinal !m);
  Alcotest.(check (option int)) "last" (Some (n - 1))
    (Extent_map.find !m ((n * 16) - 1));
  Alcotest.(check bool) "whole-range remove empties" true
    (Extent_map.is_empty (Extent_map.remove !m (Interval.to_eof ~lo:0)))

(* ------------------------------------------------------------------ *)
(* Content                                                             *)
(* ------------------------------------------------------------------ *)

let tag w op sn = { Content.writer = w; op; sn }

let test_content_in_order () =
  let c = Content.write Content.empty (iv 0 100) (tag 1 0 1) in
  let c = Content.write c (iv 50 150) (tag 2 0 2) in
  match Content.read c (iv 0 150) with
  | [ (_, Some t1); (_, Some t2) ] ->
      Alcotest.(check int) "first writer" 1 t1.Content.writer;
      Alcotest.(check int) "second writer" 2 t2.Content.writer
  | l -> Alcotest.fail (Printf.sprintf "unexpected segments: %d" (List.length l))

let test_content_out_of_order () =
  (* An SN-9 flush landing before an SN-7 flush must win on overlap. *)
  let c, _ = Content.write_if_newer Content.empty (iv 0 100) (tag 2 0 9) in
  let c, won = Content.write_if_newer c (iv 50 150) (tag 1 0 7) in
  Alcotest.(check (list (pair int int)))
    "only non-overlap applied" [ (100, 150) ]
    (List.map (fun (i : Interval.t) -> (i.lo, i.hi)) won);
  Alcotest.(check (option int)) "newer kept"
    (Some 9)
    (match Content.read c (iv 60 61) with
    | [ (_, Some t) ] -> Some t.Content.sn
    | _ -> None)

let test_content_equal_checksum () =
  let mk order =
    List.fold_left
      (fun c (lo, hi, t) -> fst (Content.write_if_newer c (iv lo hi) t))
      Content.empty order
  in
  let a = mk [ (0, 100, tag 1 0 1); (50, 150, tag 2 0 2) ] in
  let b = mk [ (50, 150, tag 2 0 2); (0, 100, tag 1 0 1) ] in
  Alcotest.(check bool) "order independent" true (Content.equal a b);
  Alcotest.(check int) "checksums equal" (Content.checksum a) (Content.checksum b);
  let c = mk [ (0, 100, tag 1 0 2); (50, 150, tag 2 0 1) ] in
  Alcotest.(check bool) "different content differs" false (Content.equal a c)

let test_content_holes () =
  let c = Content.write Content.empty (iv 10 20) (tag 1 0 1) in
  match Content.read c (iv 0 30) with
  | [ (h1, None); (_, Some _); (h2, None) ] ->
      Alcotest.(check (pair int int)) "hole 1" (0, 10) (h1.Interval.lo, h1.Interval.hi);
      Alcotest.(check (pair int int)) "hole 2" (20, 30) (h2.Interval.lo, h2.Interval.hi)
  | _ -> Alcotest.fail "expected hole/data/hole"

(* ------------------------------------------------------------------ *)
(* Dllist                                                              *)
(* ------------------------------------------------------------------ *)

let test_dllist_fifo () =
  let l = Dllist.create () in
  Alcotest.(check bool) "empty" true (Dllist.is_empty l);
  let n1 = Dllist.push_back l 1 in
  let n2 = Dllist.push_back l 2 in
  let _n3 = Dllist.push_back l 3 in
  Dllist.check_invariants l;
  Alcotest.(check int) "length" 3 (Dllist.length l);
  Alcotest.(check (list int)) "fifo order" [ 1; 2; 3 ] (Dllist.to_list l);
  (* O(1) removal from the middle *)
  Dllist.remove l n2;
  Dllist.check_invariants l;
  Alcotest.(check (list int)) "mid removed" [ 1; 3 ] (Dllist.to_list l);
  Alcotest.(check bool) "inactive" false (Dllist.active n2);
  Alcotest.(check bool) "still active" true (Dllist.active n1);
  Alcotest.check_raises "double remove rejected"
    (Invalid_argument "Dllist.remove: node already removed") (fun () ->
      Dllist.remove l n2);
  Alcotest.(check int) "value survives removal" 2 (Dllist.value n2)

let test_dllist_iter_safe_against_removal () =
  (* [iter] must survive the body unlinking the node it is visiting —
     the lock server grants (and unlinks) waiters mid-iteration. *)
  let l = Dllist.create () in
  let nodes = List.map (Dllist.push_back l) [ 1; 2; 3; 4 ] in
  let seen = ref [] in
  Dllist.iter
    (fun v ->
      seen := v :: !seen;
      if v mod 2 = 0 then
        Dllist.remove l (List.nth nodes (v - 1)))
    l;
  Alcotest.(check (list int)) "visited all" [ 1; 2; 3; 4 ] (List.rev !seen);
  Alcotest.(check (list int)) "odd survivors" [ 1; 3 ] (Dllist.to_list l);
  Dllist.check_invariants l

(* Model-based: a Dllist under random push/remove agrees with a plain
   list of (id, value) pairs. *)
let prop_dllist_matches_model =
  let open QCheck in
  let op = Gen.(oneof [ return `Push; return `Remove_mid; return `Remove_head ]) in
  let print_op = function
    | `Push -> "push"
    | `Remove_mid -> "rm-mid"
    | `Remove_head -> "rm-head"
  in
  Test.make ~name:"dllist agrees with list model" ~count:300
    (make ~print:Print.(list print_op) (Gen.list_size (Gen.int_range 1 60) op))
    (fun ops ->
      let l = Dllist.create () in
      let nodes = ref [] (* (id, node) newest first *) in
      let model = ref [] (* ids, queue order *) in
      let next = ref 0 in
      List.iter
        (fun op ->
          match op with
          | `Push ->
              let id = !next in
              incr next;
              nodes := (id, Dllist.push_back l id) :: !nodes;
              model := !model @ [ id ]
          | `Remove_mid | `Remove_head -> (
              let live =
                List.filter (fun (_, n) -> Dllist.active n) !nodes
              in
              match (op, List.rev live) with
              | _, [] -> ()
              | `Remove_head, (id, n) :: _ | _, _ :: (id, n) :: _ | _, [ (id, n) ]
                ->
                  Dllist.remove l n;
                  model := List.filter (fun x -> x <> id) !model))
        ops;
      Dllist.check_invariants l;
      Dllist.to_list l = !model
      && Dllist.length l = List.length !model
      && Dllist.fold (fun acc x -> acc + x) l 0
         = List.fold_left ( + ) 0 !model)

(* ------------------------------------------------------------------ *)
(* Interval_index                                                      *)
(* ------------------------------------------------------------------ *)

let ii_add m lo hi id = Interval_index.add m (iv lo hi) ~id id

let ii_hits m q =
  Interval_index.fold_overlapping m q ~init:[] ~f:(fun acc _ id _ -> id :: acc)
  |> List.sort Int.compare

let test_interval_index_basic () =
  let m = Interval_index.create () in
  ii_add m 0 10 1;
  ii_add m 5 15 2;
  ii_add m 20 30 3;
  Interval_index.check_invariants m;
  Alcotest.(check int) "cardinal" 3 (Interval_index.cardinal m);
  Alcotest.(check (list int)) "stacked overlap" [ 1; 2 ] (ii_hits m (iv 6 9));
  Alcotest.(check (list int)) "gap" [] (ii_hits m (iv 15 20));
  Alcotest.(check (list int))
    "touching is not overlap" [ 3 ]
    (ii_hits m (iv 20 21));
  Alcotest.(check (list int)) "all" [ 1; 2; 3 ] (ii_hits m (iv 0 100));
  Interval_index.remove m (iv 5 15) ~id:2;
  Interval_index.check_invariants m;
  Alcotest.(check (list int)) "after removal" [ 1 ] (ii_hits m (iv 6 9))

let test_interval_index_duplicates_rejected () =
  let m = Interval_index.create () in
  ii_add m 0 10 7;
  Alcotest.check_raises "duplicate (lo,id)"
    (Invalid_argument "Interval_index.add: duplicate entry (lo=0, id=7)")
    (fun () -> ii_add m 0 99 7);
  (* A rejected add leaves the index as it was. *)
  Interval_index.check_invariants m;
  Alcotest.(check int) "unchanged" 1 (Interval_index.cardinal m);
  (* same lo, different id: fine — shared locks stack *)
  ii_add m 0 10 8;
  Alcotest.(check int) "stacked" 2 (Interval_index.cardinal m);
  Alcotest.check_raises "absent entry"
    (Invalid_argument "Interval_index.remove: no entry (lo=3, id=7)")
    (fun () -> Interval_index.remove m (iv 3 10) ~id:7);
  Interval_index.check_invariants m;
  Alcotest.(check int) "still stacked" 2 (Interval_index.cardinal m)

(* Model-based: overlap queries against a naive association list, under
   random add/remove — including many duplicate extents (shared locks
   piling up on the same range, the shape that motivates the (lo, id)
   key). *)
let prop_interval_index_matches_model =
  let open QCheck in
  let bound = 64 in
  let genop =
    Gen.(
      oneof
        [
          map2 (fun lo len -> `Add (lo, lo + len)) (int_bound (bound - 2))
            (int_range 1 16);
          map (fun i -> `Remove i) (int_bound 30);
          map2 (fun lo len -> `Query (lo, lo + len)) (int_bound (bound - 2))
            (int_range 1 16);
        ])
  in
  let print_op = function
    | `Add (lo, hi) -> Printf.sprintf "add[%d,%d)" lo hi
    | `Remove i -> Printf.sprintf "rm#%d" i
    | `Query (lo, hi) -> Printf.sprintf "q[%d,%d)" lo hi
  in
  Test.make ~name:"interval_index agrees with naive list" ~count:300
    (make ~print:Print.(list print_op)
       (Gen.list_size (Gen.int_range 1 60) genop))
    (fun ops ->
      let next = ref 0 in
      let model = ref [] (* (interval, id) *) in
      let ok = ref true in
      let m = Interval_index.create () in
      List.iter
        (fun op ->
          match op with
          | `Add (lo, hi) ->
              let id = !next in
              incr next;
              model := (iv lo hi, id) :: !model;
              Interval_index.add m (iv lo hi) ~id id
          | `Remove k -> (
              (* remove the k-th live entry, if any *)
              match List.nth_opt !model k with
              | None -> ()
              | Some (ivl, id) ->
                  model := List.filter (fun (_, i) -> i <> id) !model;
                  Interval_index.remove m ivl ~id)
          | `Query (lo, hi) ->
              let got =
                Interval_index.fold_overlapping m (iv lo hi) ~init:[]
                  ~f:(fun acc _ id _ -> id :: acc)
                |> List.sort Int.compare
              in
              let want =
                List.filter_map
                  (fun (ivl, id) ->
                    if Interval.overlaps ivl (iv lo hi) then Some id else None)
                  !model
                |> List.sort Int.compare
              in
              if got <> want then ok := false)
        ops;
      Interval_index.check_invariants m;
      !ok
      && Interval_index.cardinal m = List.length !model
      && Interval_index.to_list m |> List.map (fun (_, id, _) -> id)
         |> List.sort Int.compare
         = (List.map snd !model |> List.sort Int.compare))

(* The ordered probe against a naive scan of [to_list] (which is in
   (lo, id) order): after random inserts and removals, with random start
   points and random predicates over the stored value, both must name
   the same entry — or both none. *)
let prop_interval_index_find_first_from =
  let open QCheck in
  let bound = 64 in
  let genop =
    Gen.(
      oneof
        [
          map2 (fun lo len -> `Add (lo, lo + len)) (int_bound (bound - 2))
            (int_range 1 16);
          map (fun i -> `Remove i) (int_bound 30);
          map2 (fun x k -> `Probe (x, k)) (int_bound (bound + 4)) (int_range 1 4);
        ])
  in
  let print_op = function
    | `Add (lo, hi) -> Printf.sprintf "add[%d,%d)" lo hi
    | `Remove i -> Printf.sprintf "rm#%d" i
    | `Probe (x, k) -> Printf.sprintf "first(lo>=%d, id mod %d = 0)" x k
  in
  Test.make ~name:"interval_index find_first_from agrees with a scan"
    ~count:300
    (make ~print:Print.(list print_op)
       (Gen.list_size (Gen.int_range 1 80) genop))
    (fun ops ->
      let next = ref 0 in
      let live = ref [] in
      let ok = ref true in
      let m = Interval_index.create () in
      List.iter
        (fun op ->
          match op with
          | `Add (lo, hi) ->
              let id = !next in
              incr next;
              live := (iv lo hi, id) :: !live;
              Interval_index.add m (iv lo hi) ~id id
          | `Remove k -> (
              match List.nth_opt !live k with
              | None -> ()
              | Some (ivl, id) ->
                  live := List.filter (fun (_, i) -> i <> id) !live;
                  Interval_index.remove m ivl ~id)
          | `Probe (x, k) ->
              let p v = v mod k = 0 in
              let got =
                Interval_index.find_first_from m ~lo:x p
                |> Option.map (fun ((ivl : Interval.t), id, v) ->
                       (ivl.lo, ivl.hi, id, v))
              in
              let want =
                List.find_opt
                  (fun ((ivl : Interval.t), _, v) -> ivl.lo >= x && p v)
                  (Interval_index.to_list m)
                |> Option.map (fun ((ivl : Interval.t), id, v) ->
                       (ivl.lo, ivl.hi, id, v))
              in
              if got <> want then ok := false)
        ops;
      Interval_index.check_invariants m;
      !ok)

(* The in-place index against the persistent tree it replaced
   (test/ref_interval_index.ml), at the lock server's scale and in the
   strided run's shape: hull starts only ascend, many hulls reach EOF,
   runs of entries stack on one start, and old entries leave mostly from
   the front.  Thousands of entries stay live, so the trees rotate at
   every depth.  After every step both must report the same entries in
   the same order for an overlap fold and a full walk, the same
   existence verdict and first-from probe, and the same cardinal. *)
let prop_interval_index_matches_reference =
  let open QCheck in
  let step =
    Gen.(
      frequency
        [
          ( 7,
            map3
              (fun gap len eof -> `Add (gap, len, eof))
              (frequencyl [ (1, 0); (3, 1); (1, 7) ])
              (int_range 1 24) (frequencyl [ (3, false); (1, true) ]) );
          (2, return `Remove_oldest);
          (1, map (fun k -> `Remove_nth k) (int_bound 4000));
        ])
  in
  let probe = Gen.(triple (int_bound 40) (int_range 1 64) (int_range 1 5)) in
  let case = Gen.(list_repeat 6000 (pair step probe)) in
  Test.make ~name:"interval_index matches the persistent reference"
    ~count:3 (make case)
    (fun steps ->
      let m = Interval_index.create () in
      let r = ref Ref_interval_index.empty in
      (* live entries, oldest first, as (interval, id) *)
      let live = Queue.create () in
      let removed = Hashtbl.create 64 in
      let next_id = ref 0 and start = ref 0 in
      let remove (ivl, id) =
        Interval_index.remove m ivl ~id;
        r := Ref_interval_index.remove !r ivl ~id;
        Hashtbl.replace removed id ()
      in
      let rec oldest () =
        match Queue.take_opt live with
        | Some (_, id) when Hashtbl.mem removed id -> oldest ()
        | e -> e
      in
      let entries fold =
        List.rev
          (fold (fun acc (ivl : Interval.t) id v ->
               (ivl.lo, ivl.hi, id, v) :: acc))
      in
      List.iteri
        (fun i (op, (back, qlen, k)) ->
          (match op with
          | `Add (gap, len, eof) ->
              start := !start + gap;
              let ivl =
                if eof then Interval.to_eof ~lo:!start
                else iv !start (!start + len)
              in
              let id = !next_id in
              incr next_id;
              Interval_index.add m ivl ~id id;
              r := Ref_interval_index.add !r ivl ~id id;
              Queue.add (ivl, id) live
          | `Remove_oldest -> Option.iter remove (oldest ())
          | `Remove_nth n -> (
              let alive =
                Queue.fold
                  (fun acc (ivl, id) ->
                    if Hashtbl.mem removed id then acc else (ivl, id) :: acc)
                  [] live
              in
              match List.nth_opt alive (n mod max 1 (List.length alive)) with
              | Some e -> remove e
              | None -> ()));
          let lo = max 0 (!start - back) in
          let q = iv lo (lo + qlen) in
          let p v = v mod k = 0 in
          let got =
            ( entries (fun f ->
                  Interval_index.fold_overlapping m q ~init:[] ~f),
              Interval_index.exists_overlapping m q (fun _ id _ -> p id),
              Interval_index.find_first_from m ~lo p
              |> Option.map (fun ((ivl : Interval.t), id, v) ->
                     (ivl.lo, ivl.hi, id, v)),
              Interval_index.cardinal m )
          in
          let want =
            ( entries (fun f ->
                  Ref_interval_index.fold_overlapping !r q ~init:[] ~f),
              Ref_interval_index.exists_overlapping !r q (fun _ id _ -> p id),
              Ref_interval_index.find_first_from !r ~lo p
              |> Option.map (fun ((ivl : Interval.t), id, v) ->
                     (ivl.lo, ivl.hi, id, v)),
              Ref_interval_index.cardinal !r )
          in
          if got <> want then Test.fail_reportf "step %d: queries differ" i;
          (* The full walk, entry by entry against the reference's. *)
          let rest = ref (Ref_interval_index.to_list !r) in
          Interval_index.iter
            (fun (ivl : Interval.t) id v ->
              match !rest with
              | ((rivl : Interval.t), rid, rv) :: tl
                when Interval.equal rivl ivl && rid = id && rv = v ->
                  rest := tl
              | _ -> Test.fail_reportf "step %d: walks differ at id %d" i id)
            m;
          if !rest <> [] then Test.fail_reportf "step %d: walk ends early" i)
        steps;
      Interval_index.check_invariants m;
      Interval_index.cardinal m >= 1000)

(* ------------------------------------------------------------------ *)
(* Stats / Table / Units / Det_random                                  *)
(* ------------------------------------------------------------------ *)

let test_stats () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 1.; 2.; 3.; 4.; 5. ];
  Alcotest.(check int) "count" 5 (Stats.count s);
  Alcotest.(check (float 1e-9)) "mean" 3. (Stats.mean s);
  Alcotest.(check (float 1e-9)) "min" 1. (Stats.min s);
  Alcotest.(check (float 1e-9)) "max" 5. (Stats.max s);
  Alcotest.(check (float 1e-9)) "median" 3. (Stats.percentile s 50.);
  Alcotest.(check (float 1e-9)) "p100" 5. (Stats.percentile s 100.)

let test_stats_empty () =
  let s = Stats.create () in
  Alcotest.(check (float 0.)) "mean empty" 0. (Stats.mean s);
  Alcotest.(check (float 0.)) "pct empty" 0. (Stats.percentile s 50.)

(* Hand-computed nearest-rank fixtures, including the edges the old
   index arithmetic got wrong. *)
let test_stats_percentile_edges () =
  let of_list l =
    let s = Stats.create () in
    List.iter (Stats.add s) l;
    s
  in
  let check name s p want =
    Alcotest.(check (float 0.)) name want (Stats.percentile s p)
  in
  (* n = 1: every percentile is the sample *)
  let s1 = of_list [ 42. ] in
  check "n=1 p0" s1 0. 42.;
  check "n=1 p50" s1 50. 42.;
  check "n=1 p100" s1 100. 42.;
  (* n = 2: ranks split at exactly p = 50 *)
  let s2 = of_list [ 10.; 20. ] in
  check "n=2 p0" s2 0. 10.;
  check "n=2 p50" s2 50. 10.;
  check "n=2 p50.1" s2 50.1 20.;
  check "n=2 p100" s2 100. 20.;
  (* n = 4, unsorted insert order *)
  let s4 = of_list [ 4.; 1.; 3.; 2. ] in
  check "n=4 p25" s4 25. 1.;
  check "n=4 p26" s4 26. 2.;
  check "n=4 p75" s4 75. 3.;
  check "n=4 p76" s4 76. 4.;
  (* binary float noise: 7/100*300 = 21.000000000000004, whose bare
     ceil picked sample 22 instead of 21 *)
  let s300 = of_list (List.init 300 (fun i -> float_of_int (i + 1))) in
  check "n=300 p7 (float noise)" s300 7. 21.;
  check "n=300 p50" s300 50. 150.;
  check "n=300 p100" s300 100. 300.;
  (* out-of-range p clamps instead of indexing out of bounds *)
  check "p<0 clamps" s4 (-5.) 1.;
  check "p>100 clamps" s4 200. 4.

(* Regression pin for the BENCH_scale percentile degeneracy: a stream
   with genuine spread must yield p50 strictly below p99.  The shape
   mirrors the scale benchmark after the think-jitter fix — a tight
   cluster of steady-state latencies plus a jittered tail — where the
   pre-fix lockstep workload produced p50 == p99 bit-for-bit. *)
let test_stats_spread_p50_lt_p99 () =
  let s = Stats.create () in
  let rng = Det_random.create ~seed:0x1a7 in
  for _ = 1 to 4096 do
    Stats.add s (25e-3 +. Det_random.float rng 50e-6)
  done;
  let p50 = Stats.percentile s 50. and p99 = Stats.percentile s 99. in
  Alcotest.(check bool)
    (Printf.sprintf "p50 %.9f < p99 %.9f" p50 p99)
    true (p50 < p99)

(* Nearest-rank definition checked directly against its spec: the
   result is the smallest sample whose 1-based rank i has i/n >= p/100. *)
let prop_stats_percentile_nearest_rank =
  let open QCheck in
  Test.make ~name:"percentile matches nearest-rank spec" ~count:300
    (make
       ~print:Print.(pair (list int) int)
       Gen.(pair (list_size (int_range 1 50) (int_bound 100)) (int_bound 100)))
    (fun (xs, p) ->
      let s = Stats.create () in
      List.iter (fun x -> Stats.add s (float_of_int x)) xs;
      let sorted = List.sort compare (List.map float_of_int xs) in
      let n = List.length sorted in
      let rank =
        (* smallest i (1-based) with i * 100 >= p * n, in exact integer
           arithmetic, clamped to [1, n] *)
        Stdlib.max 1 (Stdlib.min n (((p * n) + 99) / 100))
      in
      Stats.percentile s (float_of_int p) = List.nth sorted (rank - 1))

(* Stats against a list-based reference (its representation before the
   samples moved into a growable float array): a script of adds and
   percentile queries, queries interleaved with adds so the sorted
   cache is rebuilt after growth.  Count, mean, min, max and every
   queried percentile must agree exactly.  Up to 300 adds cross several
   doublings of the array. *)
let prop_stats_matches_list_reference =
  let open QCheck in
  let op =
    Gen.(
      frequency
        [
          (4, map (fun x -> `Add (float_of_int x /. 4.)) (int_range (-400) 400));
          (1, map (fun p -> `Pct (float_of_int p /. 10.)) (int_range (-10) 1010));
        ])
  in
  let print = function
    | `Add x -> Printf.sprintf "add %g" x
    | `Pct p -> Printf.sprintf "p%g" p
  in
  let ref_percentile samples p =
    match samples with
    | [] -> 0.
    | _ ->
        let a = Array.of_list (List.sort Float.compare samples) in
        let n = Array.length a in
        let p = Float.max 0. (Float.min 100. p) in
        let x = p /. 100. *. float_of_int n in
        let rank = int_of_float (ceil (x -. (1e-9 +. (1e-12 *. x)))) - 1 in
        a.(Stdlib.max 0 (Stdlib.min (n - 1) rank))
  in
  Test.make ~name:"stats match a list-based reference" ~count:200
    (make ~print:Print.(list print) Gen.(list_size (int_range 0 380) op))
    (fun ops ->
      let s = Stats.create () in
      let samples = ref [] and sum = ref 0. in
      List.for_all
        (fun op ->
          (match op with
          | `Add x ->
              Stats.add s x;
              samples := x :: !samples;
              sum := !sum +. x
          | `Pct _ -> ());
          let n = List.length !samples in
          let agree =
            Stats.count s = n
            && Stats.mean s = (if n = 0 then 0. else !sum /. float_of_int n)
            && Stats.min s
               = List.fold_left Float.min (if n = 0 then 0. else infinity) !samples
            && Stats.max s
               = List.fold_left Float.max
                   (if n = 0 then 0. else neg_infinity)
                   !samples
          in
          match op with
          | `Pct p -> agree && Stats.percentile s p = ref_percentile !samples p
          | `Add _ -> agree)
        ops)

(* The same exact-rank property at per-mille resolution: p is drawn in
   tenths of a percent (0..1000 per-mille), the oracle rank is computed
   in exact integer arithmetic, and the tail percentiles the load
   benchmark reports — p50/p99/p999 — are all inside the drawn range.
   n stays below 1000, so this also sweeps the below-resolution regime
   where every p > (n-1)/n * 100 must return the maximum. *)
let prop_stats_percentile_permille =
  let open QCheck in
  Test.make ~name:"percentile matches nearest-rank spec at p999 resolution"
    ~count:300
    (make
       ~print:Print.(pair (list int) int)
       Gen.(pair (list_size (int_range 1 80) (int_bound 1000)) (int_bound 1000)))
    (fun (xs, pm) ->
      let s = Stats.create () in
      List.iter (fun x -> Stats.add s (float_of_int x)) xs;
      let sorted = List.sort compare (List.map float_of_int xs) in
      let n = List.length sorted in
      let rank =
        (* smallest i (1-based) with i * 1000 >= pm * n *)
        Stdlib.max 1 (Stdlib.min n (((pm * n) + 999) / 1000))
      in
      Stats.percentile s (float_of_int pm /. 10.) = List.nth sorted (rank - 1))

(* Regression pins for p999 around the resolution boundary: with fewer
   than 1000 samples the nearest rank of p999 is n itself (the maximum);
   at exactly n = 1000 distinct samples the rank is 999, i.e. the
   second-largest value — the first point where p999 and the max
   separate. *)
let test_stats_p999_resolution () =
  let ramp n =
    let s = Stats.create () in
    for i = 1 to n do
      Stats.add s (float_of_int i)
    done;
    s
  in
  List.iter
    (fun n ->
      Alcotest.(check (float 0.))
        (Printf.sprintf "n=%d below p999 resolution: p999 = max" n)
        (float_of_int n)
        (Stats.percentile (ramp n) 99.9))
    [ 1; 10; 100; 999 ];
  let s1000 = ramp 1000 in
  Alcotest.(check (float 0.)) "n=1000: p999 is the 999th sample" 999.
    (Stats.percentile s1000 99.9);
  Alcotest.(check (float 0.)) "n=1000: p100 is still the max" 1000.
    (Stats.percentile s1000 100.);
  (* ordering the load rows rely on: p50 <= p99 <= p999 <= max *)
  let p50 = Stats.percentile s1000 50.
  and p99 = Stats.percentile s1000 99.
  and p999 = Stats.percentile s1000 99.9 in
  Alcotest.(check bool) "p50 <= p99 <= p999" true (p50 <= p99 && p99 <= p999)

let test_units () =
  Alcotest.(check string) "64KiB" "64KiB" (Units.bytes_to_string (64 * 1024));
  Alcotest.(check string) "1MiB" "1MiB" (Units.bytes_to_string (1024 * 1024));
  Alcotest.(check string) "odd" "47008B" (Units.bytes_to_string 47008);
  Alcotest.(check string) "GB/s" "3.00GB/s" (Units.bandwidth_to_string 3e9);
  Alcotest.(check string) "ms" "1.50ms" (Units.seconds_to_string 1.5e-3)

let string_contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub haystack i nn = needle || at (i + 1)) in
  nn = 0 || at 0

let test_table_render () =
  let t = Table.create ~title:"t" ~columns:[ "a"; "bb" ] in
  Table.add_row t [ "1"; "2" ];
  Table.add_row t [ "333" ];
  Table.add_note t "n";
  let s = Table.render t in
  Alcotest.(check bool) "has title" true (string_contains s "== t ==");
  Alcotest.(check bool) "has note" true (string_contains s "note: n");
  Alcotest.(check bool) "short row padded" true (string_contains s "333");
  let csv = Table.render_csv t in
  Alcotest.(check bool) "csv header" true (string_contains csv "a,bb");
  Alcotest.(check bool) "csv rows, no notes" true
    (string_contains csv "1,2" && not (string_contains csv "note"))

let test_csv_quoting () =
  let t = Table.create ~title:"q" ~columns:[ "x" ] in
  Table.add_row t [ "has,comma" ];
  Table.add_row t [ "has\"quote" ];
  let csv = Table.render_csv t in
  Alcotest.(check bool) "comma quoted" true
    (string_contains csv "\"has,comma\"");
  Alcotest.(check bool) "quote doubled" true
    (string_contains csv "\"has\"\"quote\"")

let test_det_random () =
  let a = Det_random.create ~seed:42 and b = Det_random.create ~seed:42 in
  let xs = List.init 20 (fun _ -> Det_random.int a 1000) in
  let ys = List.init 20 (fun _ -> Det_random.int b 1000) in
  Alcotest.(check (list int)) "same seed same stream" xs ys;
  let s1 = Det_random.split a and s1' = Det_random.split b in
  Alcotest.(check int) "splits agree" (Det_random.int s1 1000)
    (Det_random.int s1' 1000)

let test_det_random_state_of_ints () =
  (* [state_of_ints] must reproduce the exact stream the fuzz seeder
     historically drew from [Random.State.make]: pinned corpus seeds and
     CI reproduction lines encode offsets into it. *)
  let a = Det_random.state_of_ints [| 7; 0x51a7e |] in
  let b = Random.State.make [| 7; 0x51a7e |] in
  for _ = 1 to 50 do
    Alcotest.(check int) "stream-identical to Random.State.make"
      (Random.State.int b 1_000_000)
      (Random.State.int a 1_000_000)
  done

let test_int_tbl_sorted_traversal () =
  (* All four traversals must visit in sorted-key order whatever the
     bucket layout.  The hash is the key's low bits, so these land out
     of key order: 1 lsl 40 in the first of the 16 buckets, 1 and 17
     sharing one, a negative key and 100.. spread over the rest. *)
  let keys =
    [ 17; 5; 3; 9; -4; 1; 7; 2; 1 lsl 40 ] @ List.init 12 (fun i -> 100 + i)
  in
  let tbl = Int_tbl.create 4 in
  List.iter (fun k -> Int_tbl.replace tbl k (k * 10)) keys;
  let sorted = List.sort Int.compare keys in
  Alcotest.(check (list int)) "sorted_keys" sorted (Int_tbl.sorted_keys tbl);
  let seen = ref [] in
  Int_tbl.iter_sorted (fun k v -> seen := (k, v) :: !seen) tbl;
  Alcotest.(check (list (pair int int)))
    "iter_sorted"
    (List.map (fun k -> (k, k * 10)) sorted)
    (List.rev !seen);
  Alcotest.(check (list int)) "fold_sorted" (List.rev sorted)
    (Int_tbl.fold_sorted (fun k _ acc -> k :: acc) tbl []);
  Alcotest.(check (list (pair int int)))
    "bindings_sorted"
    (List.map (fun k -> (k, k * 10)) sorted)
    (Int_tbl.bindings_sorted tbl)

let test_int_tbl_shadowed_bindings () =
  (* [Int_tbl.add] shadowing: keys are deduplicated and only each key's
     current binding is visited. *)
  let tbl = Int_tbl.create 4 in
  Int_tbl.add tbl 1 "old";
  Int_tbl.add tbl 1 "new";
  Int_tbl.add tbl 2 "only";
  Alcotest.(check (list int)) "keys deduplicated" [ 1; 2 ]
    (Int_tbl.sorted_keys tbl);
  Alcotest.(check (list (pair int string)))
    "current binding wins"
    [ (1, "new"); (2, "only") ]
    (Int_tbl.bindings_sorted tbl)

(* ------------------------------------------------------------------ *)
(* Knob                                                                *)
(* ------------------------------------------------------------------ *)

(* Every reader against the same table of raw values: unset/empty means
   the default, values are trimmed, and anything malformed or out of
   range raises Invalid_argument naming the knob and the value. *)
let knob_var = "KNOB_UNDER_TEST"

let with_knob raw f =
  Unix.putenv knob_var raw;
  Fun.protect ~finally:(fun () -> Unix.putenv knob_var "") f

let show_result pp = function
  | Ok v -> pp v
  | Error msg -> "raises: " ^ msg

let read_knob f =
  match f knob_var with
  | v -> Ok v
  | exception Invalid_argument msg -> Error msg

let knob_case name pp read raw want =
  with_knob raw (fun () ->
      let got = read_knob read in
      match (got, want) with
      | Ok g, Some w ->
          Alcotest.(check string) (Printf.sprintf "%s %S" name raw) (pp w) (pp g)
      | Error msg, None ->
          let mentions sub =
            let n = String.length sub in
            let rec at i =
              i + n <= String.length msg && (String.sub msg i n = sub || at (i + 1))
            in
            at 0
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s %S error names knob and value: %s" name raw msg)
            true
            (mentions knob_var && mentions (Printf.sprintf "%S" raw))
      | _ ->
          Alcotest.failf "%s %S: got %s" name raw (show_result pp got))

let ints l = String.concat "," (List.map string_of_int l)
let floats l = String.concat "," (List.map string_of_float l)

let test_knob_readers () =
  let int = knob_case "int" string_of_int (Knob.int ~default:512 ~min:1) in
  int "" (Some 512);
  int "32" (Some 32);
  int " 32" (Some 32);
  int "32 \n" (Some 32);
  int "abc" None;
  int "3.5" None;
  int "0" None;
  int "-4" None;
  let int0 = knob_case "int ~min:0" string_of_int (Knob.int ~default:0 ~min:0) in
  int0 "0" (Some 0);
  int0 "two" None;
  int0 "-1" None;
  let il =
    knob_case "int_list" ints (Knob.int_list ~default:[ 128; 256; 512 ] ~min:1)
  in
  il "" (Some [ 128; 256; 512 ]);
  il "128" (Some [ 128 ]);
  il "128, 256" (Some [ 128; 256 ]);
  il " 1,2 ,4" (Some [ 1; 2; 4 ]);
  il "128;256" None;
  il "128 256" None;
  il "128,,256" None;
  il "128," None;
  il "0,2" None;
  let fl = knob_case "float" string_of_float (Knob.float ~default:0. ~above:0.) in
  fl "" (Some 0.);
  fl " 2.5 " (Some 2.5);
  fl "3" (Some 3.);
  fl "0" None;
  fl "-1" None;
  fl "nan" None;
  fl "inf" None;
  fl "fast" None;
  let fls =
    knob_case "float_list" floats (Knob.float_list ~default:[ 0.5 ] ~above:0.)
  in
  fls "" (Some [ 0.5 ]);
  fls "0.5,0.9, 1.4" (Some [ 0.5; 0.9; 1.4 ]);
  fls "0.5;0.9" None;
  fls "0.5,0" None;
  fls "0.5,x" None;
  let fg = knob_case "flag" string_of_bool (Knob.flag ~default:true) in
  fg "" (Some true);
  fg "0" (Some false);
  fg " 1 " (Some true);
  fg "false" (Some false);
  fg "yes" None;
  fg "2" None;
  let ch =
    knob_case "choice" Fun.id
      (fun name ->
        Knob.choice name ~default:"poisson" [ "constant"; "poisson"; "mmpp" ])
  in
  ch "" (Some "poisson");
  ch " MMPP" (Some "mmpp");
  ch "constant" (Some "constant");
  ch "bursty" None

let suite =
  let q = QCheck_alcotest.to_alcotest ~rand:(Fuzz.Seed.rand_state ()) in
  [
    ( "util.knob",
      [ Alcotest.test_case "readers: default, trim, malformed, range" `Quick
          test_knob_readers ] );
    ( "util.interval",
      [
        Alcotest.test_case "basic predicates" `Quick test_interval_basic;
        Alcotest.test_case "inter and hull" `Quick test_interval_inter_hull;
        Alcotest.test_case "page alignment" `Quick test_interval_align;
        Alcotest.test_case "invalid args" `Quick test_interval_invalid;
        q prop_interval_inter_hull_algebra;
      ] );
    ( "util.ranges",
      [
        Alcotest.test_case "examples" `Quick test_ranges_examples;
        q prop_ranges_match_byte_oracle;
      ] );
    ( "util.extent_map",
      [
        Alcotest.test_case "set disjoint" `Quick test_em_set_disjoint;
        Alcotest.test_case "overwrite middle splits" `Quick
          test_em_set_overwrite_middle;
        Alcotest.test_case "overwrite spanning" `Quick
          test_em_set_overwrite_spanning;
        Alcotest.test_case "remove punches hole" `Quick test_em_remove;
        Alcotest.test_case "find" `Quick test_em_find;
        Alcotest.test_case "overlapping clips" `Quick test_em_overlapping_clips;
        Alcotest.test_case "covered" `Quick test_em_covered;
        Alcotest.test_case "overlaps" `Quick test_em_overlaps;
        Alcotest.test_case "merge update set (Fig. 15)" `Quick
          test_em_merge_update_set;
        Alcotest.test_case "coalesce" `Quick test_em_coalesce;
        Alcotest.test_case "filter" `Quick test_em_filter;
        q prop_em_matches_model;
        q prop_em_merge_matches_model;
        q prop_em_disjoint_after_inserts;
        q prop_em_coalesce_preserves;
        Alcotest.test_case "262,144 ascending appends" `Quick
          test_em_ascending_appends;
        q prop_em_differential;
        q prop_em_differential_at_scale;
        q prop_em_cut_and_join;
        q prop_em_append;
      ] );
    ( "util.content",
      [
        Alcotest.test_case "in-order writes" `Quick test_content_in_order;
        Alcotest.test_case "out-of-order flush kept by SN" `Quick
          test_content_out_of_order;
        Alcotest.test_case "equality and checksum" `Quick
          test_content_equal_checksum;
        Alcotest.test_case "holes" `Quick test_content_holes;
      ] );
    ( "util.dllist",
      [
        Alcotest.test_case "fifo push/remove" `Quick test_dllist_fifo;
        Alcotest.test_case "iter safe against removal" `Quick
          test_dllist_iter_safe_against_removal;
        q prop_dllist_matches_model;
      ] );
    ( "util.interval_index",
      [
        Alcotest.test_case "overlap queries" `Quick test_interval_index_basic;
        Alcotest.test_case "duplicate and absent entries" `Quick
          test_interval_index_duplicates_rejected;
        q prop_interval_index_matches_model;
        q prop_interval_index_find_first_from;
        q prop_interval_index_matches_reference;
      ] );
    ( "util.misc",
      [
        Alcotest.test_case "stats" `Quick test_stats;
        Alcotest.test_case "stats empty" `Quick test_stats_empty;
        Alcotest.test_case "percentile edges" `Quick
          test_stats_percentile_edges;
        Alcotest.test_case "spread stream has p50 < p99" `Quick
          test_stats_spread_p50_lt_p99;
        q prop_stats_percentile_nearest_rank;
        q prop_stats_percentile_permille;
        q prop_stats_matches_list_reference;
        Alcotest.test_case "p999 at the resolution boundary" `Quick
          test_stats_p999_resolution;
        Alcotest.test_case "units" `Quick test_units;
        Alcotest.test_case "table render" `Quick test_table_render;
        Alcotest.test_case "csv quoting" `Quick test_csv_quoting;
        Alcotest.test_case "det_random" `Quick test_det_random;
        Alcotest.test_case "det_random state_of_ints" `Quick
          test_det_random_state_of_ints;
      ] );
    ( "util.int_tbl",
      [
        Alcotest.test_case "sorted traversal" `Quick
          test_int_tbl_sorted_traversal;
        Alcotest.test_case "shadowed bindings" `Quick
          test_int_tbl_shadowed_bindings;
      ] );
  ]
