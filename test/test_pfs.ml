(* Tests for ccPFS: layout math, the data-server write routine, the
   client cache, and end-to-end data safety (paper §V-B1). *)

open Ccpfs_util
open Dessim
open Ccpfs

let iv lo hi = Interval.v ~lo ~hi
let mib = Units.mib

(* ------------------------------------------------------------------ *)
(* Layout                                                              *)
(* ------------------------------------------------------------------ *)

(* [Layout.chunks] of one range, one (stripe, object range) per line. *)
let flat_chunks l r =
  Layout.chunks l [ r ]
  |> List.concat_map (fun (s, (rs : Ranges.t)) ->
         List.map (fun (r : Interval.t) -> (s, r)) (rs :> Interval.t list))

let test_layout_single_stripe () =
  let l = Layout.v ~stripe_count:1 () in
  Alcotest.(check (list (pair int (pair int int))))
    "identity map"
    [ (0, (123, 456_000)) ]
    (flat_chunks l (iv 123 456_000)
    |> List.map (fun (s, (r : Interval.t)) -> (s, (r.lo, r.hi))))

let test_layout_two_stripes () =
  let l = Layout.v ~stripe_size:mib ~stripe_count:2 () in
  (* [0, 2MiB) covers chunk 0 (stripe 0) and chunk 1 (stripe 1). *)
  let got =
    flat_chunks l (iv 0 (2 * mib))
    |> List.map (fun (s, (r : Interval.t)) -> (s, r.lo, r.hi))
  in
  Alcotest.(check (list (triple int int int)))
    "one object range per stripe"
    [ (0, 0, mib); (1, 0, mib) ]
    got

let test_layout_contiguous_merging () =
  (* A 4 MiB write on 2 stripes: each stripe's two chunks merge into one
     contiguous object range. *)
  let l = Layout.v ~stripe_size:mib ~stripe_count:2 () in
  let got =
    flat_chunks l (iv 0 (4 * mib))
    |> List.map (fun (s, (r : Interval.t)) -> (s, r.lo, r.hi))
  in
  Alcotest.(check (list (triple int int int)))
    "merged rows"
    [ (0, 0, 2 * mib); (1, 0, 2 * mib) ]
    got

let test_layout_unaligned_span () =
  let l = Layout.v ~stripe_size:mib ~stripe_count:4 () in
  let lo = mib - 1000 in
  let got =
    flat_chunks l (iv lo (lo + 2000))
    |> List.map (fun (s, (r : Interval.t)) -> (s, r.lo, r.hi))
  in
  Alcotest.(check (list (triple int int int)))
    "straddles stripes 0 and 1"
    [ (0, mib - 1000, mib); (1, 0, 1000) ]
    got

let prop_layout_partition =
  let open QCheck in
  Test.make ~name:"chunks partition the range; file_offset inverts" ~count:200
    (make
       ~print:(fun (sc, lo, len) -> Printf.sprintf "sc=%d lo=%d len=%d" sc lo len)
       Gen.(triple (int_range 1 8) (int_bound 10_000_000) (int_range 1 5_000_000)))
    (fun (stripe_count, lo, len) ->
      let l = Layout.v ~stripe_size:65536 ~stripe_count () in
      let chunks = flat_chunks l (iv lo (lo + len)) in
      let total =
        List.fold_left (fun acc (_, r) -> acc + Interval.length r) 0 chunks
      in
      let inverse_ok =
        List.for_all
          (fun (stripe, (r : Interval.t)) ->
            let f = Layout.file_offset l ~stripe r.lo in
            lo <= f && f < lo + len
            && flat_chunks l (iv f (f + 1))
               |> List.for_all (fun (s', (r' : Interval.t)) ->
                      s' = stripe && r'.lo = r.lo))
          chunks
      in
      total = len && inverse_ok)

(* Per-byte bijection: with tiny stripes, walk every byte of a random
   range — each file byte must map to exactly one (stripe, object) byte,
   no two file bytes may collide on the same object byte, and
   [file_offset] must invert the map exactly. *)
let prop_layout_byte_bijection =
  let open QCheck in
  Test.make ~name:"stripe map is a per-byte bijection" ~count:300
    (make
       ~print:(fun ((sc, ss), (lo, len)) ->
         Printf.sprintf "sc=%d ss=%d lo=%d len=%d" sc ss lo len)
       Gen.(
         pair
           (pair (int_range 1 5) (int_range 1 7))
           (pair (int_bound 200) (int_range 1 64))))
    (fun ((stripe_count, stripe_size), (lo, len)) ->
      let l = Layout.v ~stripe_size ~stripe_count () in
      let seen = Hashtbl.create 64 in
      for f = lo to lo + len - 1 do
        (match flat_chunks l (iv f (f + 1)) with
        | [ (stripe, (r : Interval.t)) ] when Interval.length r = 1 ->
            let key = (stripe, r.lo) in
            (match Hashtbl.find_opt seen key with
            | Some f' ->
                Test.fail_reportf
                  "file bytes %d and %d both land on stripe %d object byte %d"
                  f' f stripe r.lo
            | None -> Hashtbl.add seen key f);
            let back = Layout.file_offset l ~stripe r.lo in
            if back <> f then
              Test.fail_reportf
                "file_offset ~stripe:%d %d = %d, expected %d" stripe r.lo back
                f
        | _ -> Test.fail_reportf "file byte %d maps to %s" f "not exactly one object byte");
      done;
      Hashtbl.length seen = len)

(* Extents round-trip: decompose a range into per-stripe object extents,
   map every extent byte back through [file_offset], and the union must
   reassemble the original range exactly — no loss, no overlap, no
   spill beyond the ends. *)
let prop_layout_extents_round_trip =
  let open QCheck in
  Test.make ~name:"extents round-trip through file_offset" ~count:300
    (make
       ~print:(fun ((sc, ss), (lo, len)) ->
         Printf.sprintf "sc=%d ss=%d lo=%d len=%d" sc ss lo len)
       Gen.(
         pair
           (pair (int_range 1 6) (int_range 1 9))
           (pair (int_bound 500) (int_range 1 200))))
    (fun ((stripe_count, stripe_size), (lo, len)) ->
      let l = Layout.v ~stripe_size ~stripe_count () in
      let bytes =
        flat_chunks l (iv lo (lo + len))
        |> List.concat_map (fun (stripe, (r : Interval.t)) ->
               List.init (Interval.length r) (fun k ->
                   Layout.file_offset l ~stripe (r.lo + k)))
      in
      List.sort_uniq compare bytes = List.init len (fun k -> lo + k))

(* Grouping by stripe as it was done with a hash table per write, kept
   as the reference for the property below. *)
let ref_group_by_stripe chunks =
  let tbl = Int_tbl.create 8 in
  List.iter
    (fun (stripe, iv) ->
      let cur = Option.value (Int_tbl.find_opt tbl stripe) ~default:[] in
      Int_tbl.replace tbl stripe (iv :: cur))
    chunks;
  Int_tbl.fold_sorted
    (fun s ivs acc -> (s, Ranges.of_list ivs) :: acc)
    tbl []
  |> List.rev

(* [Layout.chunks] groups per stripe itself (what [Client] used to do
   with a second pass over the chunks).  Its grouping of several file
   ranges, with duplicate, overlapping and touching ones common, must be
   the reference grouping of every byte's own (stripe, object byte),
   computed here from the round-robin formula.  The ranges include the
   real shapes: one striped range, and one inside a single chunk. *)
let prop_group_by_stripe_matches_reference =
  let open QCheck in
  let range = Gen.(pair (int_bound 200) (int_range 1 40)) in
  let print ((sc, ss), ranges) =
    Printf.sprintf "sc=%d ss=%d %s" sc ss
      (Print.list (fun (lo, len) -> Printf.sprintf "[%d,+%d)" lo len) ranges)
  in
  Test.make ~name:"group_by_stripe agrees with the hash-table grouping"
    ~count:500
    (make ~print
       Gen.(
         pair
           (pair (int_range 1 6) (int_range 1 32))
           (oneof
              [
                list_size (int_range 1 8) range;
                map (fun r -> [ r ]) (pair (int_bound 500) (int_range 1 300));
              ])))
    (fun ((stripe_count, stripe_size), ranges) ->
      let l = Layout.v ~stripe_size ~stripe_count () in
      let bytes =
        List.concat_map
          (fun (lo, len) ->
            List.init len (fun k ->
                let f = lo + k in
                let chunk = f / stripe_size in
                let obj =
                  (chunk / stripe_count * stripe_size) + (f mod stripe_size)
                in
                (chunk mod stripe_count, iv obj (obj + 1))))
          ranges
      in
      let flat =
        List.map (fun (s, (ivs : Ranges.t)) ->
            ( s,
              List.map
                (fun (r : Interval.t) -> (r.lo, r.hi))
                (ivs :> Interval.t list) ))
      in
      flat
        (Layout.chunks l (List.map (fun (lo, len) -> iv lo (lo + len)) ranges))
      = flat (ref_group_by_stripe bytes))

let test_rid_packing () =
  let rid = Layout.rid ~fid:42 ~stripe:7 in
  Alcotest.(check int) "stripe" 7 (Layout.rid_stripe rid);
  Alcotest.(check bool) "distinct files distinct rids" true
    (Layout.rid ~fid:1 ~stripe:0 <> Layout.rid ~fid:0 ~stripe:1)

(* ------------------------------------------------------------------ *)
(* Cluster harness                                                     *)
(* ------------------------------------------------------------------ *)

(* Small, fast parameters; generous bandwidths keep timings short while
   preserving protocol behaviour. *)
let fast_params =
  {
    Netsim.Params.rtt = 1e-4;
    b_net = 1e9;
    server_ops = 10_000.;
    b_disk = 5e8;
    b_mem = 2e9;
    ctl_msg_bytes = 128;
    bulk_threshold = 16 * 1024;
    client_io_overhead = 0.;
  }

let small_config =
  Config.with_dirty_limits ~dirty_min:(4 * mib) ~dirty_max:(16 * mib)
    Config.default

let make ?(policy = Seqdlm.Policy.seqdlm) ?(config = small_config) ~servers
    ~clients () =
  Cluster.create ~params:fast_params ~config ~policy ~n_servers:servers
    ~n_clients:clients ()

let tag_of_byte cl file ~stripe ~obj_off =
  let c = Cluster.stripe_contents cl file ~stripe in
  match Content.read c (iv obj_off (obj_off + 1)) with
  | [ (_, tag) ] -> tag
  | _ -> None

(* ------------------------------------------------------------------ *)
(* End-to-end basics                                                   *)
(* ------------------------------------------------------------------ *)

let test_write_fsync_contents () =
  let cl = make ~servers:1 ~clients:1 () in
  let file = ref None in
  Cluster.spawn_client cl 0 ~name:"writer" (fun c ->
      let f = Client.open_file c ~create:true "/a" in
      file := Some f;
      Client.write c f ~off:0 ~len:65536;
      Client.write c f ~off:65536 ~len:65536;
      Client.fsync c);
  Cluster.run cl;
  let f = Option.get !file in
  let contents = Cluster.stripe_contents cl f ~stripe:0 in
  Alcotest.(check int) "all bytes on device" (128 * 1024)
    (Content.written_bytes contents);
  (match Content.read contents (iv 0 (128 * 1024)) with
  | segs ->
      Alcotest.(check bool) "no holes" true
        (List.for_all (fun (_, t) -> t <> None) segs));
  Cluster.check_invariants cl

let test_read_your_writes_before_flush () =
  let cl = make ~servers:1 ~clients:1 () in
  let seen = ref [] in
  Cluster.spawn_client cl 0 ~name:"rw" (fun c ->
      let f = Client.open_file c ~create:true "/a" in
      Client.write c f ~off:0 ~len:8192;
      (* No fsync: data only in the client cache; the read must see it
         via the upgraded PW lock. *)
      seen := Client.read c f ~off:0 ~len:8192);
  Cluster.run cl;
  Alcotest.(check bool) "saw own dirty data" true
    (!seen <> []
    && List.for_all
         (fun (_, _, tag) ->
           match tag with Some t -> t.Content.writer = 0 | None -> false)
         !seen)

let test_read_after_other_client_write () =
  (* Producer/consumer coherence: reader must see the producer's data
     even though the producer never fsyncs — the PR lock conflict forces
     the flush. *)
  let cl = make ~servers:1 ~clients:2 () in
  let seen = ref [] in
  Cluster.spawn_client cl 0 ~name:"producer" (fun c ->
      let f = Client.open_file c ~create:true "/shared" in
      Client.write c f ~off:0 ~len:65536);
  Cluster.spawn_client cl 1 ~name:"consumer" (fun c ->
      Engine.sleep (Cluster.engine cl) 0.05;
      let f = Client.open_file c "/shared" in
      seen := Client.read c f ~off:0 ~len:65536);
  Cluster.run cl;
  Alcotest.(check bool) "consumer sees producer bytes" true
    (!seen <> []
    && List.for_all
         (fun (_, _, tag) ->
           match tag with Some t -> t.Content.writer = 0 | None -> false)
         !seen)

let test_append_atomic () =
  let cl = make ~servers:1 ~clients:4 () in
  let offsets = ref [] in
  for i = 0 to 3 do
    Cluster.spawn_client cl i ~name:(Printf.sprintf "a%d" i) (fun c ->
        let f = Client.open_file c ~create:true "/log" in
        for _ = 1 to 3 do
          let off = Client.append c f ~len:1000 in
          offsets := off :: !offsets
        done)
  done;
  Cluster.run cl;
  let offs = List.sort Int.compare !offsets in
  Alcotest.(check (list int))
    "appends got disjoint consecutive offsets"
    (List.init 12 (fun i -> i * 1000))
    offs;
  let cl0 = Cluster.client cl 0 in
  let size = ref 0 in
  Cluster.spawn_client cl 0 ~name:"stat" (fun c ->
      let f = Client.open_file c "/log" in
      size := Client.stat_size c f);
  Cluster.run cl;
  ignore cl0;
  Alcotest.(check int) "final size" 12_000 !size

let test_truncate () =
  let cl = make ~servers:1 ~clients:1 () in
  let post = ref [] and size = ref (-1) in
  Cluster.spawn_client cl 0 ~name:"t" (fun c ->
      let f = Client.open_file c ~create:true "/t" in
      ignore (Client.append c f ~len:10_000);
      Client.fsync c;
      Client.truncate c f ~size:4_000;
      size := Client.stat_size c f;
      post := Client.read c f ~off:0 ~len:10_000);
  Cluster.run cl;
  Alcotest.(check int) "size after truncate" 4_000 !size;
  let data_bytes =
    List.fold_left
      (fun acc (_, r, tag) ->
        if tag = None then acc else acc + Interval.length r)
      0 !post
  in
  Alcotest.(check int) "bytes beyond truncation are holes" 4_000 data_bytes

let test_dirty_max_blocks_writers () =
  let config =
    Config.with_dirty_limits ~dirty_min:(1 * mib) ~dirty_max:(2 * mib)
      Config.default
  in
  let cl = make ~config ~servers:1 ~clients:1 () in
  let peak = ref 0 in
  Cluster.spawn_client cl 0 ~name:"w" (fun c ->
      let f = Client.open_file c ~create:true "/big" in
      for k = 0 to 63 do
        Client.write c f ~off:(k * 256 * 1024) ~len:(256 * 1024)
      done;
      peak := Client_cache.dirty_peak (Client.cache c));
  Cluster.run cl;
  Alcotest.(check bool)
    (Printf.sprintf "dirty stayed under max (peak %d)" !peak)
    true
    (!peak <= 2 * mib);
  Alcotest.(check bool) "flush daemon drained voluntarily" true
    (Client_cache.bytes_flushed (Client.cache (Cluster.client cl 0)) > 0)

(* The voluntary flush daemon drains on its own once the cache holds
   more than [dirty_min]: a writer dirties 1.5 MiB per burst against a
   1 MiB threshold, with think time between bursts, and never flushes
   itself.  The daemon's flush spans (every [cache.flush] span not on
   the writer's pid), their simulated times, and the run's event count
   and fingerprint are pinned; they were taken from the daemon as a
   fiber looping over [Engine.sleep]. *)
let test_flush_daemon_drains () =
  let config =
    Config.with_dirty_limits ~dirty_min:(1 * mib) ~dirty_max:(64 * mib)
      Config.default
  in
  let cl = make ~config ~servers:1 ~clients:1 () in
  let eng = Cluster.engine cl in
  let sink = Obs.Trace.make ~pid:1 ~label:"flushd" () in
  Engine.set_trace_sink eng sink;
  let writer = ref 0 in
  Cluster.spawn_client cl 0 ~name:"w" (fun c ->
      writer := Engine.current_pid eng;
      let f = Client.open_file c ~create:true "/d" in
      for burst = 0 to 3 do
        for k = 0 to 5 do
          Client.write c f ~off:(((burst * 6) + k) * 256 * 1024)
            ~len:(256 * 1024)
        done;
        Engine.sleep eng 0.08
      done);
  Cluster.run cl;
  let daemon_flushes =
    List.filter_map
      (fun (e : Obs.Trace.ev) ->
        if e.ph = 'B' && e.name = "cache.flush" && e.tid <> !writer then
          Some (Printf.sprintf "%.9f" e.ts)
        else None)
      (Obs.Trace.events sink)
  in
  Alcotest.(check (list string)) "daemon flush times"
    [ "0.050000000"; "0.104918720"; "0.209837440"; "0.264756160" ]
    daemon_flushes;
  Alcotest.(check int) "bytes flushed" (6 * mib)
    (Client_cache.bytes_flushed (Client.cache (Cluster.client cl 0)));
  Alcotest.(check int) "engine events" 92 (Engine.events_dispatched eng);
  Alcotest.(check int64) "engine fingerprint" 884032811234326076L
    (Engine.fingerprint eng)

(* ------------------------------------------------------------------ *)
(* Data safety (paper §V-B1)                                           *)
(* ------------------------------------------------------------------ *)

(* IO500 ior-hard shape: N-1 strided, odd-sized writes, each client
   writes its own slots; then every client reads a peer's region back
   and checks provenance.  Run for 1, 2 and 4 stripes. *)
let test_ior_hard_readback stripes () =
  let n = 4 and per_client = 6 and xfer = 47_008 in
  let cl = make ~servers:(max 1 (stripes / 2)) ~clients:n () in
  let layout = Layout.v ~stripe_size:mib ~stripe_count:stripes () in
  for i = 0 to n - 1 do
    Cluster.spawn_client cl i ~name:(Printf.sprintf "w%d" i) (fun c ->
        let f = Client.open_file c ~create:true ~layout "/ior" in
        for k = 0 to per_client - 1 do
          let slot = (k * n) + i in
          Client.write c f ~off:(slot * xfer) ~len:xfer
        done)
  done;
  Cluster.run cl;
  (* Read-back phase from different clients (client j reads i's data). *)
  let errors = ref 0 in
  for j = 0 to n - 1 do
    Cluster.spawn_client cl j ~name:(Printf.sprintf "r%d" j) (fun c ->
        let f = Client.open_file c "/ior" in
        let owner = (j + 1) mod n in
        for k = 0 to per_client - 1 do
          let slot = (k * n) + owner in
          let segs = Client.read c f ~off:(slot * xfer) ~len:xfer in
          List.iter
            (fun (_, _, tag) ->
              match tag with
              | Some t when t.Content.writer = owner -> ()
              | Some _ | None -> incr errors)
            segs
        done)
  done;
  Cluster.run cl;
  Alcotest.(check int) "every byte has the right writer" 0 !errors;
  Cluster.check_invariants cl

(* Fig. 7 workload: concurrent overlapping writes, two per client; after
   a barrier, all clients read the whole range; checksums must agree and
   the surviving content must be some client's second write. *)
let test_overlapping_writes_checksum stripes () =
  let n = 4 and len = 256 * 1024 in
  let cl = make ~servers:1 ~clients:n () in
  let layout = Layout.v ~stripe_size:(64 * 1024) ~stripe_count:stripes () in
  for i = 0 to n - 1 do
    Cluster.spawn_client cl i ~name:(Printf.sprintf "w%d" i) (fun c ->
        let f = Client.open_file c ~create:true ~layout "/overlap" in
        Client.write c f ~off:0 ~len;
        Client.write c f ~off:0 ~len)
  done;
  Cluster.run cl (* barrier: all writes complete *);
  let sums = Array.make n 0 in
  for i = 0 to n - 1 do
    Cluster.spawn_client cl i ~name:(Printf.sprintf "r%d" i) (fun c ->
        let f = Client.open_file c "/overlap" in
        sums.(i) <- Client.read_checksum c f ~off:0 ~len)
  done;
  Cluster.run cl;
  for i = 1 to n - 1 do
    Alcotest.(check int) (Printf.sprintf "checksum %d = checksum 0" i)
      sums.(0) sums.(i)
  done;
  (* Examine the device after the PR locks forced all flushes: each byte
     must carry the same winner, and it must be a second write (op = 2,
     matching "the results are from the second write of some client"). *)
  let file = ref None in
  Cluster.spawn_client cl 0 ~name:"open" (fun c ->
      file := Some (Client.open_file c "/overlap"));
  Cluster.run cl;
  let f = Option.get !file in
  let winner = tag_of_byte cl f ~stripe:0 ~obj_off:0 in
  (match winner with
  | Some t ->
      Alcotest.(check int) "winner wrote twice (second write)" 2 t.Content.op
  | None -> Alcotest.fail "no data on device");
  (* All stripes, all bytes: same (writer, op). *)
  for stripe = 0 to stripes - 1 do
    let c = Cluster.stripe_contents cl f ~stripe in
    Content.read c (iv 0 (len / stripes))
    |> List.iter (fun (_, tag) ->
           match (tag, winner) with
           | Some a, Some b ->
               Alcotest.(check int) "same writer" b.Content.writer a.Content.writer;
               Alcotest.(check int) "same op" b.Content.op a.Content.op
           | _ -> Alcotest.fail "hole or missing winner")
  done;
  Cluster.check_invariants cl

(* The same overlapping-write safety must hold for every DLM policy. *)
let test_overlap_all_policies () =
  List.iter
    (fun policy ->
      if not policy.Seqdlm.Policy.datatype_requests then begin
        let n = 3 and len = 128 * 1024 in
        let cl = make ~policy ~servers:1 ~clients:n () in
        for i = 0 to n - 1 do
          Cluster.spawn_client cl i ~name:(Printf.sprintf "w%d" i) (fun c ->
              let f = Client.open_file c ~create:true "/p" in
              Client.write c f ~off:0 ~len)
        done;
        Cluster.run cl;
        let sums = Array.make n 0 in
        for i = 0 to n - 1 do
          Cluster.spawn_client cl i ~name:(Printf.sprintf "r%d" i) (fun c ->
              let f = Client.open_file c "/p" in
              sums.(i) <- Client.read_checksum c f ~off:0 ~len)
        done;
        Cluster.run cl;
        for i = 1 to n - 1 do
          Alcotest.(check int)
            (policy.Seqdlm.Policy.name ^ ": coherent readback")
            sums.(0) sums.(i)
        done;
        Cluster.check_invariants cl
      end)
    Seqdlm.Policy.all

(* Multi-stripe spanning writes under BW: the final file must be one
   whole write, never a mix of two clients' writes (§III-B1). *)
let test_spanning_write_atomicity () =
  let stripes = 2 and len = 2 * mib in
  let cl = make ~servers:2 ~clients:4 () in
  let layout = Layout.v ~stripe_size:mib ~stripe_count:stripes () in
  for i = 0 to 3 do
    Cluster.spawn_client cl i ~name:(Printf.sprintf "w%d" i) (fun c ->
        let f = Client.open_file c ~create:true ~layout "/atomic" in
        for _ = 1 to 3 do
          Client.write c f ~off:0 ~len
        done)
  done;
  Cluster.run cl;
  Cluster.fsync_all cl;
  let file = ref None in
  Cluster.spawn_client cl 0 ~name:"open" (fun c ->
      file := Some (Client.open_file c "/atomic"));
  Cluster.run cl;
  let f = Option.get !file in
  let tags = ref [] in
  for stripe = 0 to stripes - 1 do
    let c = Cluster.stripe_contents cl f ~stripe in
    Content.read c (iv 0 mib)
    |> List.iter (fun (_, tag) -> tags := tag :: !tags)
  done;
  (match !tags with
  | Some first :: rest ->
      List.iter
        (fun tag ->
          match tag with
          | Some t ->
              Alcotest.(check int) "atomic writer" first.Content.writer
                t.Content.writer;
              Alcotest.(check int) "atomic op" first.Content.op t.Content.op
          | None -> Alcotest.fail "hole in written range")
        rest
  | _ -> Alcotest.fail "no data");
  Cluster.check_invariants cl

(* ------------------------------------------------------------------ *)
(* Durability (§IV-C1)                                                 *)
(* ------------------------------------------------------------------ *)

let test_fsync_file_scoped () =
  let cl = make ~servers:1 ~clients:1 () in
  Cluster.spawn_client cl 0 ~name:"w" (fun c ->
      let fa = Client.open_file c ~create:true "/a" in
      let fb = Client.open_file c ~create:true "/b" in
      Client.write c fa ~off:0 ~len:65536;
      Client.write c fb ~off:0 ~len:65536;
      Client.fsync_file c fa;
      (* /a durable, /b still dirty *)
      Alcotest.(check int) "b still dirty" 65536
        (Client_cache.dirty_bytes (Client.cache c)));
  Cluster.run cl;
  let file = ref None in
  Cluster.spawn_client cl 0 ~name:"open" (fun c ->
      file := Some (Client.open_file c "/a"));
  Cluster.run cl;
  Alcotest.(check int) "a on device" 65536
    (Content.written_bytes (Cluster.stripe_contents cl (Option.get !file) ~stripe:0))

let test_client_crash_durability () =
  (* The §IV-C1 convention: a crashing client loses exactly its dirty
     data; everything flushed earlier survives and stays readable. *)
  let cl = make ~servers:1 ~clients:2 () in
  Cluster.spawn_client cl 0 ~name:"doomed" (fun c ->
      let f = Client.open_file c ~create:true "/d" in
      Client.write c f ~off:0 ~len:65536;
      Client.fsync c;
      Client.write c f ~off:65536 ~len:65536;
      (* crash before the second write is flushed *)
      let lost = Client.crash c in
      Alcotest.(check int) "exactly the dirty bytes lost" 65536 lost);
  Cluster.run cl;
  let seen = ref [] in
  Cluster.spawn_client cl 1 ~name:"survivor" (fun c ->
      let f = Client.open_file c "/d" in
      seen := Client.read c f ~off:0 ~len:(2 * 65536));
  Cluster.run cl;
  let data_bytes =
    List.fold_left
      (fun acc (_, r, tag) -> if tag = None then acc else acc + Interval.length r)
      0 !seen
  in
  Alcotest.(check int) "flushed half survives, dirty half is a hole" 65536
    data_bytes

(* ------------------------------------------------------------------ *)
(* Clean (read) cache                                                  *)
(* ------------------------------------------------------------------ *)

let test_read_cache_serves_repeats () =
  let cl = make ~servers:1 ~clients:1 () in
  Cluster.spawn_client cl 0 ~name:"r" (fun c ->
      let f = Client.open_file c ~create:true "/rc" in
      Client.write c f ~off:0 ~len:65536;
      Client.fsync c;
      ignore (Client.read c f ~off:0 ~len:65536);
      ignore (Client.read c f ~off:0 ~len:65536);
      ignore (Client.read c f ~off:8192 ~len:4096));
  Cluster.run cl;
  let ds = Data_server.stats (Cluster.data_server cl 0) in
  Alcotest.(check int) "only the first read hits the server" 1 ds.reads;
  let cc = Client.cache (Cluster.client cl 0) in
  Alcotest.(check bool) "hits recorded" true (Client_cache.read_cache_hits cc >= 2)

let test_read_cache_invalidated_on_revoke () =
  (* Client 0 caches clean data under its PR lock; client 1 overwrites,
     revoking the lock; client 0 must then refetch, not serve stale. *)
  let cl = make ~servers:1 ~clients:2 () in
  let eng = Cluster.engine cl in
  let stale = ref true in
  Cluster.spawn_client cl 0 ~name:"reader" (fun c ->
      let f = Client.open_file c ~create:true "/inv" in
      Client.write c f ~off:0 ~len:4096;
      Client.fsync c;
      ignore (Client.read c f ~off:0 ~len:4096);
      Engine.sleep eng 0.1;
      (* by now client 1 has overwritten the range *)
      match Client.read c f ~off:0 ~len:4096 with
      | [ (_, _, Some t) ] -> stale := t.Content.writer <> 1
      | _ -> ());
  Cluster.spawn_client cl 1 ~name:"writer" (fun c ->
      Engine.sleep eng 0.02;
      let f = Client.open_file c "/inv" in
      Client.write c f ~off:0 ~len:4096);
  Cluster.run cl;
  Alcotest.(check bool) "no stale read after revocation" false !stale

let test_read_cache_coherent_with_own_flushed_writes () =
  (* Regression: read, write (same range), let the flush daemon drain the
     dirty data, read again — must see the write, not the cached
     pre-write data. *)
  let cl = make ~servers:1 ~clients:1 () in
  let ok = ref false in
  Cluster.spawn_client cl 0 ~name:"rwr" (fun c ->
      let f = Client.open_file c ~create:true "/own" in
      Client.write c f ~off:0 ~len:4096;
      Client.fsync c;
      ignore (Client.read c f ~off:0 ~len:4096);
      Client.write c f ~off:0 ~len:4096;
      (* drain the dirty data; ops so far: write=1, read=2, write=3 *)
      Client.fsync c;
      match Client.read c f ~off:0 ~len:4096 with
      | [ (_, _, Some t) ] -> ok := t.Content.op = 3
      | _ -> ());
  Cluster.run cl;
  Alcotest.(check bool) "second write visible after flush" true !ok

(* The per-stripe dirty-byte counters against the extents they count.
   One client cache in front of one data server, no locks, runs random
   writes, multi-range flushes, drops and crashes, with the flush daemon
   draining in between.  After every step each stripe's counter is the
   summed length of its dirty extents, the counters sum to
   [dirty_bytes], and [drain_order] is the largest-first order (ties by
   rid) that a walk over the extents gives. *)
let prop_client_cache_counters =
  let open QCheck in
  let span = 64 * 1024 and rids = [ 1; 2; 3 ] in
  let range = Gen.(pair (int_bound (span - 1)) (int_range 1 16384)) in
  let op =
    Gen.(
      frequency
        [
          (6, map3 (fun rid r sn -> `Write (rid, r, sn)) (int_range 1 3) range
                (int_bound 4));
          (2, map2 (fun rid cuts -> `Flush (rid, cuts)) (int_range 1 3)
                (list_size (int_range 1 6) (int_bound span)));
          (1, map2 (fun rid r -> `Drop (rid, r)) (int_range 1 3) range);
          (1, return `Crash);
        ])
  in
  let print_op = function
    | `Write (rid, (lo, len), sn) -> Printf.sprintf "w%d[%d,+%d)sn%d" rid lo len sn
    | `Flush (rid, cuts) ->
        Printf.sprintf "f%d{%s}" rid
          (String.concat "," (List.map string_of_int cuts))
    | `Drop (rid, (lo, len)) -> Printf.sprintf "d%d[%d,+%d)" rid lo len
    | `Crash -> "crash"
  in
  let to_iv (lo, len) = iv lo (min span (lo + len)) in
  (* Disjoint ranges between sorted cut points, the last one open-ended
     when the count is odd. *)
  let rec ranges_of = function
    | a :: b :: rest -> iv a b :: ranges_of rest
    | [ a ] -> [ Interval.to_eof ~lo:a ]
    | [] -> []
  in
  let config =
    {
      (Config.with_dirty_limits ~dirty_min:(32 * 1024) ~dirty_max:(16 * mib)
         Config.default)
      with
      flush_period = 1e-5;
    }
  in
  Test.make ~name:"client-cache dirty counters match the extents" ~count:150
    (make ~print:Print.(list print_op) Gen.(list_size (int_range 1 40) op))
    (fun ops ->
      let eng = Engine.create () in
      let node = Netsim.Node.create eng fast_params ~name:"ds" ~with_disk:true () in
      let lock_server =
        Seqdlm.Lock_server.create eng fast_params ~node ~name:"ls"
          ~policy:Seqdlm.Policy.seqdlm
      in
      let ds =
        Data_server.create eng fast_params config ~node ~name:"ds" ~lock_server
      in
      let cc =
        Client_cache.create eng fast_params config
          ~node:(Netsim.Node.create eng fast_params ~name:"c0" ())
          ~client_id:0
          ~io_route:(fun _ -> Data_server.endpoint ds)
      in
      let consistent () =
        let sums =
          List.map
            (fun (rid, extents) ->
              ( rid,
                List.fold_left (fun a (x, _) -> a + Interval.length x) 0 extents ))
            (Client_cache.dirty_view cc)
        in
        let bytes rid = Option.value (List.assoc_opt rid sums) ~default:0 in
        let by_size =
          List.map (fun (rid, b) -> (b, rid)) sums
          |> List.sort (fun (a, ar) (b, br) ->
                 match Int.compare b a with 0 -> Int.compare ar br | c -> c)
        in
        List.for_all (fun rid -> Client_cache.stripe_dirty_bytes cc ~rid = bytes rid) rids
        && List.fold_left (fun a (_, b) -> a + b) 0 sums
           = Client_cache.dirty_bytes cc
        && Client_cache.drain_order cc = by_size
      in
      let failed = ref None in
      Engine.spawn eng ~name:"driver" (fun () ->
          List.iteri
            (fun i op ->
              if !failed = None then begin
                (match op with
                | `Write (rid, r, sn) ->
                    Client_cache.write cc ~rid ~range:(to_iv r) ~sn ~op:i
                | `Flush (rid, cuts) ->
                    Client_cache.flush cc ~rid
                      ~ranges:(ranges_of (List.sort_uniq Int.compare cuts))
                | `Drop (rid, r) -> Client_cache.drop_clean cc ~rid ~range:(to_iv r)
                | `Crash -> ignore (Client_cache.lose_all_dirty cc));
                if not (consistent ()) then failed := Some (i, print_op op)
              end)
            ops);
      Engine.run eng;
      match !failed with
      | None -> true
      | Some (i, op) -> Test.fail_reportf "inconsistent after step %d (%s)" i op)

(* The client cache buffers writes that land past a stripe's dirty
   data and joins them into its map later.  Against a plain
   [Extent_map] per stripe, written with the same SN rule and cut by
   the same flushes, nothing may show: not the maps the flushes ship
   (a stub data server records them), not [has_dirty], [local_view],
   [dirty_view], what [drop_clean] and [lose_all_dirty] discard, nor
   the byte counters.  Sequential runs longer than the cache's run
   bound are common, so joins happen both when a run fills and when a
   reader comes. *)
let prop_client_cache_append_runs =
  let open QCheck in
  let rids = [ 1; 2 ] in
  let range = Gen.(pair (int_bound 200_000) (int_range 1 20_000)) in
  let op =
    Gen.(
      frequency
        [
          (6, map3 (fun rid (n, len, gap) sn -> `Appends (rid, n, len, gap, sn))
                (int_range 1 2)
                (triple (int_range 1 30) (int_range 1 8192) (int_bound 2))
                (int_bound 4));
          (2, map3 (fun rid r sn -> `Write (rid, r, sn)) (int_range 1 2) range
                (int_bound 4));
          (2, map2 (fun rid cuts -> `Flush (rid, cuts)) (int_range 1 2)
                (list_size (int_range 1 6) (int_bound 300_000)));
          (1, map (fun rid -> `Flush_all rid) (int_range 1 2));
          (1, map2 (fun rid r -> `Has (rid, r)) (int_range 1 2) range);
          (1, map2 (fun rid r -> `View (rid, r)) (int_range 1 2) range);
          (1, map2 (fun rid r -> `Drop (rid, r)) (int_range 1 2) range);
          (1, return `Dirty_view);
          (1, return `Crash);
        ])
  in
  let print_op = function
    | `Appends (rid, n, len, gap, sn) ->
        Printf.sprintf "a%d:%dx%d+%dsn%d" rid n len gap sn
    | `Write (rid, (lo, len), sn) ->
        Printf.sprintf "w%d[%d,+%d)sn%d" rid lo len sn
    | `Flush (rid, cuts) ->
        Printf.sprintf "f%d{%s}" rid
          (String.concat "," (List.map string_of_int cuts))
    | `Flush_all rid -> Printf.sprintf "F%d" rid
    | `Has (rid, (lo, len)) -> Printf.sprintf "h%d[%d,+%d)" rid lo len
    | `View (rid, (lo, len)) -> Printf.sprintf "v%d[%d,+%d)" rid lo len
    | `Drop (rid, (lo, len)) -> Printf.sprintf "d%d[%d,+%d)" rid lo len
    | `Dirty_view -> "dirty_view"
    | `Crash -> "crash"
  in
  let to_iv (lo, len) = Interval.of_len ~lo ~len in
  let rec ranges_of = function
    | a :: b :: rest -> iv a b :: ranges_of rest
    | [ a ] -> [ Interval.to_eof ~lo:a ]
    | [] -> []
  in
  let config =
    Config.with_dirty_limits ~dirty_min:(1024 * mib) ~dirty_max:(2048 * mib)
      Config.default
  in
  Test.make ~name:"buffered appends match a plain extent map" ~count:200
    (make ~print:Print.(list print_op) Gen.(list_size (int_range 1 40) op))
    (fun ops ->
      let eng = Engine.create () in
      let node = Netsim.Node.create eng fast_params ~name:"ds" () in
      let shipped = ref [] in
      let ep =
        Netsim.Rpc.endpoint eng fast_params ~node ~name:"ds.io"
          ~handler:(fun req ~reply ->
            (match req with
            | Data_server.Write_flush { extents; _ } ->
                shipped := Extent_map.to_list extents :: !shipped
            | Data_server.Read _ | Data_server.Truncate _ -> ());
            reply Data_server.Done)
      in
      let cc =
        Client_cache.create eng fast_params config
          ~node:(Netsim.Node.create eng fast_params ~name:"c0" ())
          ~client_id:0 ~io_route:(fun _ -> ep)
      in
      let model = Int_tbl.create 4 and flushed = ref 0 and rpcs = ref 0 in
      let get rid =
        Option.value (Int_tbl.find_opt model rid) ~default:Extent_map.empty
      in
      let total m = Extent_map.total_length m in
      let failed = ref None and step = ref "" in
      let check what ok =
        if (not ok) && !failed = None then
          failed := Some (what ^ " at " ^ !step)
      in
      let write i rid range sn =
        Client_cache.write cc ~rid ~range ~sn ~op:i;
        let tag = { Content.writer = 0; op = i; sn } in
        Int_tbl.replace model rid
          (fst
             (Extent_map.merge (get rid) range tag ~keep_new:(fun ~old ->
                  sn >= old.Content.sn)))
      in
      let flush rid ranges =
        shipped := [];
        Client_cache.flush cc ~rid ~ranges;
        let taken, left =
          List.fold_left
            (fun (acc, m) r ->
              let taken, left = Extent_map.cut m r in
              (Extent_map.set_all acc taken, left))
            (Extent_map.empty, get rid) ranges
        in
        Int_tbl.replace model rid left;
        if not (Extent_map.is_empty taken) then begin
          flushed := !flushed + total taken;
          incr rpcs
        end;
        (* [flush] returns once the stub has acknowledged the message *)
        check "shipped map"
          (!shipped
          =
          if Extent_map.is_empty taken then []
          else [ Extent_map.to_list taken ])
      in
      Engine.spawn eng ~name:"ops" (fun () ->
          List.iteri
            (fun i op ->
              step := Printf.sprintf "step %d (%s)" i (print_op op);
              (match op with
              | `Appends (rid, n, len, gap, sn) ->
                  for k = 1 to n do
                    let lo =
                      match Extent_map.span (get rid) with
                      | Some s -> s.Interval.hi + gap
                      | None -> gap
                    in
                    write ((i * 100) + k) rid (Interval.of_len ~lo ~len) sn
                  done
              | `Write (rid, r, sn) -> write (i * 100) rid (to_iv r) sn
              | `Flush (rid, cuts) ->
                  flush rid (ranges_of (List.sort_uniq Int.compare cuts))
              | `Flush_all rid -> flush rid [ Interval.to_eof ~lo:0 ]
              | `Has (rid, r) ->
                  check "has_dirty"
                    (Client_cache.has_dirty cc ~rid ~ranges:[ to_iv r ]
                    = Extent_map.overlaps (get rid) (to_iv r))
              | `View (rid, r) ->
                  check "local_view"
                    (Client_cache.local_view cc ~rid ~range:(to_iv r)
                    = Extent_map.overlapping (get rid) (to_iv r))
              | `Drop (rid, r) ->
                  Client_cache.drop_clean cc ~rid ~range:(to_iv r);
                  Int_tbl.replace model rid
                    (Extent_map.remove (get rid) (to_iv r))
              | `Dirty_view ->
                  check "dirty_view"
                    (Client_cache.dirty_view cc
                    = List.filter_map
                        (fun rid ->
                          match Extent_map.to_list (get rid) with
                          | [] -> None
                          | l -> Some (rid, l))
                        rids)
              | `Crash ->
                  let lost = Client_cache.lose_all_dirty cc in
                  check "lost bytes"
                    (lost
                    = List.fold_left (fun a rid -> a + total (get rid)) 0 rids);
                  Int_tbl.reset model);
              check "stripe bytes"
                (List.for_all
                   (fun rid ->
                     Client_cache.stripe_dirty_bytes cc ~rid = total (get rid))
                   rids);
              check "dirty bytes"
                (Client_cache.dirty_bytes cc
                = List.fold_left (fun a rid -> a + total (get rid)) 0 rids);
              check "bytes flushed" (Client_cache.bytes_flushed cc = !flushed);
              check "flush rpcs" (Client_cache.flush_rpcs cc = !rpcs))
            ops;
          step := "the final whole-stripe flushes";
          List.iter (fun rid -> flush rid [ Interval.to_eof ~lo:0 ]) rids);
      Engine.run eng;
      match !failed with
      | None -> true
      | Some what -> Test.fail_reportf "diverged: %s" what)

(* ------------------------------------------------------------------ *)
(* Data-server machinery                                               *)
(* ------------------------------------------------------------------ *)

let test_extent_cache_cleanup () =
  (* Tiny extent-cache limit: the cleanup task must kick in and keep the
     cache bounded while writes stay correct. *)
  let config =
    Config.with_extent_cache ~limit:64
      (Config.with_dirty_limits ~dirty_min:(256 * 1024) ~dirty_max:mib
         Config.default)
  in
  let cl = make ~config ~servers:1 ~clients:2 () in
  for i = 0 to 1 do
    Cluster.spawn_client cl i ~name:(Printf.sprintf "w%d" i) (fun c ->
        let f = Client.open_file c ~create:true "/strided" in
        (* N-1 strided with odd sizes: maximally fragmenting. *)
        for k = 0 to 199 do
          let slot = (k * 2) + i in
          Client.write c f ~off:(slot * 5000) ~len:5000
        done;
        Client.fsync c)
  done;
  Cluster.run cl;
  let ds = Cluster.data_server cl 0 in
  let st = Data_server.stats ds in
  Alcotest.(check bool) "cleanup ran" true (st.cleanup_runs > 0);
  Alcotest.(check bool)
    (Printf.sprintf "entries bounded (now %d)" (Data_server.extent_cache_entries ds))
    true
    (Data_server.extent_cache_entries ds <= 3 * 64);
  (* correctness unaffected *)
  let errors = ref 0 in
  Cluster.spawn_client cl 0 ~name:"verify" (fun c ->
      let f = Client.open_file c "/strided" in
      for slot = 0 to 399 do
        let owner = slot mod 2 in
        Client.read c f ~off:(slot * 5000) ~len:5000
        |> List.iter (fun (_, _, tag) ->
               match tag with
               | Some t when t.Content.writer = owner -> ()
               | Some _ | None -> incr errors)
      done);
  Cluster.run cl;
  Alcotest.(check int) "strided data intact after cleanup" 0 !errors

(* The paths that shrink or rewrite the data server's extent cache:
   cleanup rounds, force syncs and coalescing passes that really merge.
   None of the benchmark workloads reaches them, so this reduced N-1
   strided-unaligned IOR (the extent-cache ablation's shape) runs all
   three and pins the exact outcome.  A final whole-region overwrite per
   client lands over the older fragments: the update set of each such
   block is a run of adjacent pieces with one (SN, op), which the next
   coalescing pass merges. *)
let cleanup_pin_run () =
  let clients = 8 and xfer = 47_008 and blocks = 40 in
  let config =
    Config.with_extent_cache ~limit:128
      (Config.with_dirty_limits ~dirty_min:(256 * 1024) ~dirty_max:mib
         Config.default)
  in
  let cl = make ~config ~servers:1 ~clients () in
  for i = 0 to clients - 1 do
    Cluster.spawn_client cl i ~name:(Printf.sprintf "w%d" i) (fun c ->
        let f = Client.open_file c ~create:true "/frag" in
        for k = 0 to blocks - 1 do
          Client.write c f ~off:(((k * clients) + i) * xfer) ~len:xfer
        done;
        let region = blocks * xfer in
        Client.write c f ~off:(i * region / clients) ~len:(region / clients);
        Client.fsync c)
  done;
  Cluster.run cl;
  cl

let test_extent_cache_cleanup_pin () =
  let cl = cleanup_pin_run () in
  let eng = Cluster.engine cl in
  let ds = Cluster.data_server cl 0 in
  let st = Data_server.stats ds in
  let checksum =
    List.fold_left
      (fun acc rid -> (acc * 31) + Content.checksum (Data_server.contents ds rid))
      0 (Data_server.stripe_rids ds)
  in
  Alcotest.(check bool) "cleanup rounds ran" true (st.cleanup_runs > 0);
  Alcotest.(check bool) "a force sync ran" true (st.force_syncs > 0);
  Alcotest.(check bool) "a coalescing pass merged" true (st.coalesced > 0);
  Alcotest.(check int) "engine events" 1851 (Engine.events_dispatched eng);
  Alcotest.(check int64) "engine fingerprint" 268613583622258357L
    (Engine.fingerprint eng);
  Alcotest.(check (list int))
    "data-server stats"
    [ 51; 328; 16922880; 16922880; 0; 0; 3; 300; 1; 232; 1 ]
    [
      st.flush_rpcs; st.blocks_in; st.bytes_received; st.bytes_written;
      st.bytes_discarded; st.reads; st.cleanup_runs; st.cleanup_removed;
      st.force_syncs; st.cache_peak; st.coalesced;
    ];
  Alcotest.(check int) "extent-cache entries" 27
    (Data_server.extent_cache_entries ds);
  Alcotest.(check int) "device checksum" 2992166163289840108 checksum

(* A Write_flush of blocks given in offset order, as a client's dirty
   map yields them. *)
let write_flush ~rid blocks =
  Data_server.Write_flush
    {
      rid;
      extents =
        Extent_map.of_list
          (List.map (fun (b : Data_server.block) -> (b.b_range, b.b_tag)) blocks);
      ctl = [];
    }

(* Regression: a force sync emptied the extent cache but left the
   coalescing trigger at the pre-sync size, 1.25x of which lies above
   the cleanup limit, so same-(SN, op) neighbours were never merged
   again.  Driven straight through the IO endpoint: a one-entry cleanup
   batch cannot keep up, so the first overflow force-syncs; afterwards
   one write's blocks, flushed as adjacent pieces, must coalesce. *)
let test_coalesce_after_force_sync () =
  let limit = 64 and page = 4096 in
  let config =
    { (Config.with_extent_cache ~limit Config.default) with cleanup_batch = 1 }
  in
  let eng = Engine.create () in
  let node = Netsim.Node.create eng fast_params ~name:"ds" ~with_disk:true () in
  let lock_server =
    Seqdlm.Lock_server.create eng fast_params ~node ~name:"ls"
      ~policy:Seqdlm.Policy.seqdlm
  in
  let ds = Data_server.create eng fast_params config ~node ~name:"ds" ~lock_server in
  let client = Netsim.Node.create eng fast_params ~name:"c0" () in
  let rid = 1 in
  let flush blocks =
    match
      Netsim.Rpc.call (Data_server.endpoint ds) ~src:client ~req_bytes:page
        (write_flush ~rid blocks)
    with
    | Data_server.Done -> ()
    | r -> Alcotest.fail (Data_server.io_resp_to_string r)
  in
  let block k ~sn ~op =
    {
      Data_server.b_range = iv (k * page) ((k + 1) * page);
      b_tag = { Content.writer = 0; op; sn };
    }
  in
  let coalesced_before = ref 0 in
  Engine.spawn eng ~name:"writer" (fun () ->
      (* distinct (SN, op) per block: nothing merges, the cache overflows *)
      flush (List.init (limit + 16) (fun k -> block k ~sn:(k + 1) ~op:1));
      Engine.sleep eng 0.1;
      coalesced_before := (Data_server.stats ds).coalesced;
      (* one write split into adjacent pieces, all with one (SN, op) *)
      flush (List.init 40 (fun k -> block (1000 + k) ~sn:500 ~op:2)));
  Engine.run eng;
  let st = Data_server.stats ds in
  Alcotest.(check int) "the overflow force-synced" 1 st.force_syncs;
  Alcotest.(check bool)
    (Printf.sprintf "same-(SN, op) pieces merged after the sync (%d entries)"
       (Data_server.extent_cache_entries ds))
    true
    (st.coalesced > !coalesced_before
    && List.exists
         (fun ((x : Interval.t), _) -> Interval.length x > page)
         (Data_server.extent_cache_of ds rid))

(* A flush into a gap of the extent cache over older device data: a
   cleanup round with no write lock live reclaims every cache entry,
   and newer blocks straddling the old ones' boundaries then land on
   the device exactly as successive writes would, all of them in the
   update set. *)
let test_gap_flush_over_device_data () =
  let page = 4096 in
  let config = Config.with_extent_cache ~limit:4 Config.default in
  let eng = Engine.create () in
  let node = Netsim.Node.create eng fast_params ~name:"ds" ~with_disk:true () in
  let lock_server =
    Seqdlm.Lock_server.create eng fast_params ~node ~name:"ls"
      ~policy:Seqdlm.Policy.seqdlm
  in
  let ds = Data_server.create eng fast_params config ~node ~name:"ds" ~lock_server in
  let client = Netsim.Node.create eng fast_params ~name:"c0" () in
  let rid = 1 in
  let flush blocks =
    Engine.spawn eng ~name:"writer" (fun () ->
        match
          Netsim.Rpc.call (Data_server.endpoint ds) ~src:client ~req_bytes:page
            (write_flush ~rid blocks)
        with
        | Data_server.Done -> ()
        | r -> Alcotest.fail (Data_server.io_resp_to_string r));
    Engine.run eng
  in
  let block lo ~sn ~op =
    { Data_server.b_range = iv lo (lo + page); b_tag = { Content.writer = 0; op; sn } }
  in
  flush (List.init 8 (fun k -> block (k * page) ~sn:1 ~op:k));
  Alcotest.(check int) "the cleanup round emptied the cache" 0
    (Data_server.extent_cache_entries ds);
  let older = Data_server.contents ds rid in
  let blocks = List.init 3 (fun k -> block ((2 * k * page) + (page / 2)) ~sn:2 ~op:k) in
  let written = (Data_server.stats ds).bytes_written in
  flush blocks;
  let everything = Interval.to_eof ~lo:0 in
  Alcotest.(check bool) "the device took every block" true
    (Content.read (Data_server.contents ds rid) everything
    = Content.read
        (List.fold_left
           (fun c (b : Data_server.block) -> Content.write c b.b_range b.b_tag)
           older blocks)
        everything);
  Alcotest.(check int) "update-set bytes" (3 * page)
    ((Data_server.stats ds).bytes_written - written);
  Alcotest.(check int) "cache entries" 3 (Data_server.extent_cache_entries ds)

(* Fig. 15's order on one byte range: the higher SN wins, and under
   one SN the later op of the same lock (a re-flushed overwrite).  The
   writer never decides, and the replayed extent log agrees. *)
let test_extent_cache_order () =
  let eng = Engine.create () in
  let node = Netsim.Node.create eng fast_params ~name:"ds" ~with_disk:true () in
  let lock_server =
    Seqdlm.Lock_server.create eng fast_params ~node ~name:"ls"
      ~policy:Seqdlm.Policy.seqdlm
  in
  let config = Config.with_extent_log true Config.default in
  let ds = Data_server.create eng fast_params config ~node ~name:"ds" ~lock_server in
  let range = iv 0 4096 in
  let ingest label ~writer ~sn ~op expect =
    Alcotest.(check int) label expect
      (Data_server.ingest ds ~rid:1
         { Data_server.b_range = range; b_tag = { Content.writer; op; sn } })
  in
  ingest "first write lands" ~writer:5 ~sn:3 ~op:1 4096;
  ingest "same SN, later op wins" ~writer:5 ~sn:3 ~op:2 4096;
  ingest "same SN, earlier op loses" ~writer:5 ~sn:3 ~op:1 0;
  ingest "lower SN loses to any writer and op" ~writer:9 ~sn:2 ~op:7 0;
  ingest "higher SN wins over any writer and op" ~writer:1 ~sn:4 ~op:0 4096;
  Alcotest.(check bool) "the device holds the SN-4 write" true
    (Content.read (Data_server.contents ds 1) range
    = [ (range, Some { Content.writer = 1; op = 0; sn = 4 }) ]);
  Alcotest.(check (list (pair string int))) "cache entry"
    [ (Interval.to_string range, 4) ]
    (List.map
       (fun (x, sn) -> (Interval.to_string x, sn))
       (Data_server.extent_cache_of ds 1));
  Alcotest.(check bool) "log replay rebuilds the same cache" true
    (Data_server.rebuild_extent_cache_from_log ds 1
    = Data_server.extent_cache_of ds 1)

(* Table III's segmented shape, reduced: four ranks each write 512
   contiguous 4 KiB blocks of their own region of one stripe, so the
   flushes land in gaps of the data server's extent cache and device.
   The dirty limits cut each rank's stream into flushes of up to 256
   blocks, the low cache limit makes coalescing passes fire in the
   middle of a flush, and a cleanup batch far below the overflow leaves
   a cleanup round short, so a force sync follows.  The extent log is
   on, so the log replay is checked against the live cache too. *)
let segmented_pin_run () =
  let clients = 4 and blocks = 512 and xfer = 4096 in
  let config =
    {
      (Config.with_extent_log true
         (Config.with_extent_cache ~limit:1024
            (Config.with_dirty_limits ~dirty_min:(256 * 1024) ~dirty_max:mib
               Config.default)))
      with
      cleanup_batch = 64;
    }
  in
  let cl = make ~config ~servers:1 ~clients () in
  for i = 0 to clients - 1 do
    Cluster.spawn_client cl i ~name:(Printf.sprintf "w%d" i) (fun c ->
        let f = Client.open_file c ~create:true "/seg" in
        for k = 0 to blocks - 1 do
          Client.write c f ~off:(((i * blocks) + k) * xfer) ~len:xfer
        done;
        Client.fsync c)
  done;
  Cluster.run cl;
  cl

(* An order-sensitive digest of a stripe's (range, SN) cache entries. *)
let entries_digest entries =
  List.fold_left
    (fun acc ((x : Interval.t), sn) ->
      List.fold_left (fun acc v -> (acc * 1_000_003) lxor v) acc [ x.lo; x.hi; sn ])
    17 entries

let test_segmented_gap_pin () =
  let cl = segmented_pin_run () in
  let eng = Cluster.engine cl in
  let ds = Cluster.data_server cl 0 in
  let st = Data_server.stats ds in
  let rid =
    match Data_server.stripe_rids ds with
    | [ rid ] -> rid
    | rids -> Alcotest.failf "%d stripes, expected one" (List.length rids)
  in
  let cache = Data_server.extent_cache_of ds rid in
  Alcotest.(check bool) "a cleanup round ran" true (st.cleanup_runs > 0);
  Alcotest.(check bool) "a force sync ran" true (st.force_syncs > 0);
  Alcotest.(check int) "engine events" 2287 (Engine.events_dispatched eng);
  Alcotest.(check int64) "engine fingerprint" (-4584519332111655742L)
    (Engine.fingerprint eng);
  Alcotest.(check (list int))
    "data-server stats"
    [ 9; 2048; 8388608; 8388608; 0; 0; 1; 1122; 1; 1122; 0 ]
    [
      st.flush_rpcs; st.blocks_in; st.bytes_received; st.bytes_written;
      st.bytes_discarded; st.reads; st.cleanup_runs; st.cleanup_removed;
      st.force_syncs; st.cache_peak; st.coalesced;
    ];
  Alcotest.(check int) "extent-cache entries" 926 (List.length cache);
  Alcotest.(check int) "extent-cache digest" (-810236834716634341)
    (entries_digest cache);
  Alcotest.(check int) "device checksum" 3312779875520436017
    (Content.checksum (Data_server.contents ds rid));
  Alcotest.(check bool) "log replay rebuilds the live cache" true
    (Data_server.rebuild_extent_cache_from_log ds rid = cache)

(* The Write_flush handler against the per-block routine.  Random flush
   sequences go to one data server through its IO endpoint, and the
   same blocks one at a time to a second one through [ingest].  A flush
   is a run of disjoint ascending blocks, as a client's dirty map yields
   them: appended past everything written so far (adjacent or one byte
   apart), or placed over earlier data.  Tags come from a small set, so
   equal, lower and higher (SN, op) meet, and runs of one tag make the
   coalescing passes that fire inside a flush merge.  After every flush
   both servers must hold the same cache entries and device extents,
   count the same bytes and merges, and the handler's update-set bytes
   must be the sum of [ingest]'s. *)
let prop_write_flush_matches_ingest =
  let open QCheck in
  let run =
    Gen.(
      map3
        (fun (over, at, gapped) (n, len) (sn, op, vary) ->
          (over, at, gapped, n, len, sn, op, vary))
        (triple (frequencyl [ (2, false); (1, true) ]) (int_bound 999) bool)
        (pair (int_range 1 60) (int_range 1 16))
        (triple (int_range 1 4) (int_bound 3) (int_bound 2)))
  in
  let print (over, at, gapped, n, len, sn, op, vary) =
    Printf.sprintf "%s%s %dx%d sn%d op%d vary%d"
      (if over then Printf.sprintf "over@%d/1000" at else "append")
      (if gapped then " gapped" else "")
      n len sn op vary
  in
  let server () =
    let eng = Engine.create () in
    let node = Netsim.Node.create eng fast_params ~name:"ds" ~with_disk:true () in
    let lock_server =
      Seqdlm.Lock_server.create eng fast_params ~node ~name:"ls"
        ~policy:Seqdlm.Policy.seqdlm
    in
    let config = Config.with_extent_log true Config.default in
    (eng, Data_server.create eng fast_params config ~node ~name:"ds" ~lock_server)
  in
  Test.make ~name:"Write_flush agrees with per-block ingest" ~count:200
    (make ~print:Print.(list print) Gen.(list_size (int_range 1 12) run))
    (fun runs ->
      let rid = 1 in
      let eng, ds = server () in
      let _, ref_ds = server () in
      let client = Netsim.Node.create eng fast_params ~name:"c0" () in
      let observe ds =
        let st = Data_server.stats ds in
        ( Data_server.extent_cache_of ds rid,
          Content.read (Data_server.contents ds rid) (Interval.to_eof ~lo:0),
          [ st.bytes_received; st.bytes_written; st.bytes_discarded; st.coalesced ] )
      in
      let step (tail, i) (over, at, gapped, n, len, sn, op, vary) =
        let start = if over then at * (tail + 1) / 1000 else tail + Bool.to_int gapped in
        let blocks =
          List.init n (fun k ->
              let lo = start + (k * (len + Bool.to_int gapped)) in
              let sn, op =
                match vary with
                | 0 -> (sn, op)
                | 1 -> (sn, op + (k mod 2))
                | _ -> (sn + (k mod 2), op)
              in
              {
                Data_server.b_range = iv lo (lo + len);
                b_tag = { Content.writer = i mod 3; op; sn };
              })
        in
        let before = (Data_server.stats ds).bytes_written in
        Engine.spawn eng ~name:"flush" (fun () ->
            match
              Netsim.Rpc.call (Data_server.endpoint ds) ~src:client ~req_bytes:1
                (write_flush ~rid blocks)
            with
            | Data_server.Done -> ()
            | r -> Alcotest.fail (Data_server.io_resp_to_string r));
        Engine.run eng;
        let ref_written =
          List.fold_left (fun acc b -> acc + Data_server.ingest ref_ds ~rid b) 0 blocks
        in
        if (Data_server.stats ds).bytes_written - before <> ref_written then
          Test.fail_reportf "flush %d: update-set bytes differ" i;
        if observe ds <> observe ref_ds then
          Test.fail_reportf "flush %d: cache, device or stats differ" i;
        let last = List.nth blocks (n - 1) in
        (max tail last.b_range.Interval.hi, i + 1)
      in
      ignore (List.fold_left step (0, 0) runs);
      Data_server.rebuild_extent_cache_from_log ds rid
      = Data_server.rebuild_extent_cache_from_log ref_ds rid)

(* The skipped coalescing passes against a server that runs every due
   pass.  Flush sequences are built to leave equal (SN, op) seams in
   every way a flush can: one tag over a whole run of blocks, appends
   touching a previous run of the same tag, same-tag flushes over
   earlier data (so a kept old extent sits between won pieces of its
   own tag), and tags from a tiny set.  Now and then both servers crash
   and rebuild their caches from the extent log.  After every step both
   must hold the same cache entries and device contents and the same
   stats, the count of merged entries included. *)
let prop_coalesce_skip_matches_always_pass =
  let open QCheck in
  let flush =
    Gen.(
      map3
        (fun (place, at, gap) (n, len) (tag, vary) ->
          `Flush (place, at, gap, n, len, tag, vary))
        (triple
           (frequencyl [ (4, `Append); (2, `Over); (1, `Before) ])
           (int_bound 999)
           (frequencyl [ (4, 0); (1, 1); (1, 2000) ]))
        (pair (int_range 1 40) (int_range 1 16))
        (pair (int_bound 2) (frequencyl [ (3, 0); (1, 1) ])))
  in
  let step = Gen.(frequency [ (12, flush); (1, return `Rebuild) ]) in
  let print = function
    | `Flush (place, at, gap, n, len, tag, vary) ->
        Printf.sprintf "%s gap%d %dx%d tag%d vary%d"
          (match place with
          | `Append -> "append"
          | `Over -> Printf.sprintf "over@%d/1000" at
          | `Before -> "before")
          gap n len tag vary
    | `Rebuild -> "rebuild"
  in
  let server ~always =
    let eng = Engine.create () in
    let node =
      Netsim.Node.create eng fast_params ~name:"ds" ~with_disk:true ()
    in
    let lock_server =
      Seqdlm.Lock_server.create eng fast_params ~node ~name:"ls"
        ~policy:Seqdlm.Policy.seqdlm
    in
    let config = Config.with_extent_log true Config.default in
    let ds =
      Data_server.create eng fast_params config ~node ~name:"ds" ~lock_server
    in
    if always then Data_server.always_coalesce ds;
    let client = Netsim.Node.create eng fast_params ~name:"c0" () in
    (eng, ds, client)
  in
  Test.make ~name:"skipped coalescing passes change nothing" ~count:300
    (make ~print:Print.(list print) Gen.(list_size (int_range 1 30) step))
    (fun steps ->
      let rid = 1 in
      let servers = [ server ~always:false; server ~always:true ] in
      let observe (_, ds, _) =
        let st = Data_server.stats ds in
        ( Data_server.extent_cache_of ds rid,
          Data_server.extent_cache_entries ds,
          Content.read (Data_server.contents ds rid) (Interval.to_eof ~lo:0),
          [ st.flush_rpcs; st.blocks_in; st.bytes_received; st.bytes_written;
            st.bytes_discarded; st.cleanup_runs; st.cleanup_removed;
            st.force_syncs; st.cache_peak; st.coalesced ] )
      in
      let tags = [| (1, 0); (1, 1); (2, 0) |] in
      (* [tail]: the end of everything written; [run]: start and first
         tag of the latest append, which a [`Before] flush ends at. *)
      let apply (tail, run) = function
        | `Rebuild ->
            List.iter
              (fun (_, ds, _) -> Data_server.crash_and_rebuild ds)
              servers;
            (tail, run)
        | `Flush (place, at, gap, n, len, tag, vary) ->
            let step = len + min gap 1 in
            let start, tag =
              match place with
              | `Append -> (tail + gap, tag)
              | `Over -> (at * (tail + 1) / 1000, tag)
              | `Before ->
                  let run_lo, run_tag = run in
                  (max 0 (run_lo - (n * step) + min gap 1), run_tag)
            in
            let blocks =
              List.init n (fun k ->
                  let lo = start + (k * step) in
                  let sn, op = tags.((tag + (vary * (k mod 2))) mod 3) in
                  {
                    Data_server.b_range = iv lo (lo + len);
                    b_tag = { Content.writer = 0; op; sn };
                  })
            in
            List.iter
              (fun (eng, ds, client) ->
                Engine.spawn eng ~name:"flush" (fun () ->
                    match
                      Netsim.Rpc.call (Data_server.endpoint ds) ~src:client
                        ~req_bytes:1 (write_flush ~rid blocks)
                    with
                    | Data_server.Done -> ()
                    | r -> Alcotest.fail (Data_server.io_resp_to_string r));
                Engine.run eng)
              servers;
            let last = List.nth blocks (n - 1) in
            ( max tail last.b_range.Interval.hi,
              if place = `Append then (start, tag) else run )
      in
      ignore
        (List.fold_left
           (fun (state, i) op ->
             let state = apply state op in
             (match servers with
             | [ a; b ] ->
                 if observe a <> observe b then
                   Test.fail_reportf "step %d: cache, device or stats differ" i
             | _ -> assert false);
             (state, i + 1))
           ((0, (0, 0)), 0) steps);
      true)

let test_extent_log_recovery () =
  let config = Config.with_extent_log true small_config in
  let cl = make ~config ~servers:1 ~clients:3 () in
  for i = 0 to 2 do
    Cluster.spawn_client cl i ~name:(Printf.sprintf "w%d" i) (fun c ->
        let f = Client.open_file c ~create:true "/rec" in
        for k = 0 to 20 do
          Client.write c f ~off:(((k * 3) + i) * 7000) ~len:9000
        done;
        Client.fsync c)
  done;
  Cluster.run cl;
  let ds = Cluster.data_server cl 0 in
  let file = ref None in
  Cluster.spawn_client cl 0 ~name:"open" (fun c ->
      file := Some (Client.open_file c "/rec"));
  Cluster.run cl;
  let rid = Layout.rid ~fid:(Client.fid (Option.get !file)) ~stripe:0 in
  (* The live cache is lazily coalesced, so compare canonical forms:
     same (byte -> max SN) mapping. *)
  let canonical entries =
    Extent_map.to_list
      (Extent_map.coalesce ~eq:Int.equal (Extent_map.of_list entries))
  in
  let live = canonical (Data_server.extent_cache_of ds rid) in
  let rebuilt = canonical (Data_server.rebuild_extent_cache_from_log ds rid) in
  Alcotest.(check int) "same entry count" (List.length live)
    (List.length rebuilt);
  List.iter2
    (fun (a, sa) (b, sb) ->
      Alcotest.(check bool) "same extent" true (Interval.equal a b);
      Alcotest.(check int) "same SN" sa sb)
    live rebuilt

(* ------------------------------------------------------------------ *)
(* Release piggybacking (paper §III-B, DESIGN.md §13)                  *)
(* ------------------------------------------------------------------ *)

(* Two writers on one block over the plain transport: client 0 dirties
   it under a cached lock, then client 1 asks for PW, so the server
   revokes client 0's lock and client 1 waits for its release.  Returns
   the trace, the ctl endpoint's message count, the block size and the
   network parameters. *)
let conflicting_writers ~policy ~first_mode =
  let len = 64 * Units.kib in
  let cl = Cluster.create ~policy ~n_servers:1 ~n_clients:2 () in
  let sink = Obs.Trace.make ~pid:1 ~label:"piggyback" () in
  let eng = Cluster.engine cl in
  Engine.set_trace_sink eng sink;
  Cluster.spawn_client cl 0 ~name:"holder" (fun c ->
      let f = Client.open_file c ~create:true "/pb" in
      Client.write c f ~mode:first_mode ~off:0 ~len);
  Cluster.spawn_client cl 1 ~name:"waiter" (fun c ->
      Engine.sleep eng 1e-3;
      let f = Client.open_file c ~create:true "/pb" in
      Client.write c f ~mode:Seqdlm.Mode.PW ~off:0 ~len);
  Cluster.run cl;
  let ctl = Seqdlm.Lock_server.ctl_endpoint (Cluster.lock_server cl 0) in
  (Obs.Trace.events sink, Netsim.Rpc.calls ctl, len, Cluster.params cl)

let int_arg (e : Obs.Trace.ev) k =
  match List.assoc_opt k e.args with
  | Some (Obs.Json.Int n) -> n
  | _ -> Alcotest.failf "%s event without int arg %s" e.name k

let waiter_grant evs =
  let is_waiter_grant (e : Obs.Trace.ev) =
    e.name = "lock.grant" && int_arg e "client" = 1
  in
  match List.filter is_waiter_grant evs with
  | [ g ] -> g
  | gs -> Alcotest.failf "%d grants to the waiter, want 1" (List.length gs)

(* Begin events of the data-server flushes that carried ctl messages. *)
let flushes_carrying_ctl evs =
  List.filter
    (fun (e : Obs.Trace.ev) ->
      e.ph = 'B' && e.name = "ds.write_flush" && int_arg e "ctl" > 0)
    evs

let test_seqdlm_release_rides_flush () =
  let evs, ctl_msgs, len, params =
    conflicting_writers ~policy:Seqdlm.Policy.seqdlm ~first_mode:Seqdlm.Mode.NBW
  in
  let flush =
    match flushes_carrying_ctl evs with
    | [ f ] -> f
    | fs -> Alcotest.failf "%d flushes carry ctl, want 1" (List.length fs)
  in
  Alcotest.(check int) "the flush carries exactly the release" 1
    (int_arg flush "ctl");
  Alcotest.(check int) "only the revoke-ack crosses the ctl endpoint" 1
    ctl_msgs;
  let grant = waiter_grant evs in
  let disk_s = float_of_int len /. params.Netsim.Params.b_disk in
  let on_device = flush.ts +. disk_s in
  Alcotest.(check bool)
    (Printf.sprintf "waiter granted at %g, after the block is on the device \
                     at %g" grant.ts on_device)
    true
    (grant.ts >= on_device -. 1e-12)

let test_basic_release_is_own_message () =
  let evs, ctl_msgs, _, _ =
    conflicting_writers ~policy:Seqdlm.Policy.dlm_basic
      ~first_mode:Seqdlm.Mode.PW
  in
  Alcotest.(check int) "no flush carries ctl" 0
    (List.length (flushes_carrying_ctl evs));
  Alcotest.(check int) "ack and release each cross the ctl endpoint" 2 ctl_msgs;
  ignore (waiter_grant evs)

(* What one client costs at creation: the reachable words of a
   1,040-client cluster over a 16-client one, per added client.  State
   a plain run never touches (at-most-once tables, latency-histogram
   buckets) must not be paid up front, or the paper's client counts
   multiply it. *)
let test_words_per_client () =
  let words n =
    Obj.reachable_words
      (Obj.repr (Cluster.create ~n_servers:1 ~n_clients:n ()))
  in
  let small = words 16 in
  let per_client = (words 1040 - small) / 1024 in
  if per_client > 640 then
    Alcotest.failf "%d words per client at creation, bound 640" per_client

let suite =
  [
    ( "pfs.piggyback",
      [
        Alcotest.test_case "SeqDLM release rides the flush" `Quick
          test_seqdlm_release_rides_flush;
        Alcotest.test_case "DLM-basic release is its own message" `Quick
          test_basic_release_is_own_message;
      ] );
    ( "pfs.footprint",
      [
        Alcotest.test_case "words per client at creation" `Quick
          test_words_per_client;
      ] );
    ( "pfs.layout",
      [
        Alcotest.test_case "single stripe" `Quick test_layout_single_stripe;
        Alcotest.test_case "two stripes" `Quick test_layout_two_stripes;
        Alcotest.test_case "contiguous merging" `Quick
          test_layout_contiguous_merging;
        Alcotest.test_case "unaligned span" `Quick test_layout_unaligned_span;
        Alcotest.test_case "rid packing" `Quick test_rid_packing;
        QCheck_alcotest.to_alcotest ~rand:(Fuzz.Seed.rand_state ())
          prop_layout_partition;
        QCheck_alcotest.to_alcotest ~rand:(Fuzz.Seed.rand_state ())
          prop_layout_byte_bijection;
        QCheck_alcotest.to_alcotest ~rand:(Fuzz.Seed.rand_state ())
          prop_layout_extents_round_trip;
        QCheck_alcotest.to_alcotest ~rand:(Fuzz.Seed.rand_state ())
          prop_group_by_stripe_matches_reference;
      ] );
    ( "pfs.endtoend",
      [
        Alcotest.test_case "write + fsync reaches device" `Quick
          test_write_fsync_contents;
        Alcotest.test_case "read your writes before flush" `Quick
          test_read_your_writes_before_flush;
        Alcotest.test_case "producer/consumer coherence" `Quick
          test_read_after_other_client_write;
        Alcotest.test_case "atomic append" `Quick test_append_atomic;
        Alcotest.test_case "truncate" `Quick test_truncate;
        Alcotest.test_case "dirty_max blocks writers" `Quick
          test_dirty_max_blocks_writers;
        Alcotest.test_case "flush daemon drains past dirty_min" `Quick
          test_flush_daemon_drains;
      ] );
    ( "pfs.safety",
      [
        Alcotest.test_case "IO500 ior-hard readback, 1 stripe" `Quick
          (test_ior_hard_readback 1);
        Alcotest.test_case "IO500 ior-hard readback, 2 stripes" `Quick
          (test_ior_hard_readback 2);
        Alcotest.test_case "IO500 ior-hard readback, 4 stripes" `Quick
          (test_ior_hard_readback 4);
        Alcotest.test_case "overlapping writes checksum, 1 stripe (NBW)"
          `Quick
          (test_overlapping_writes_checksum 1);
        Alcotest.test_case "overlapping writes checksum, 2 stripes (BW)"
          `Quick
          (test_overlapping_writes_checksum 2);
        Alcotest.test_case "coherent readback under every policy" `Quick
          test_overlap_all_policies;
        Alcotest.test_case "spanning-write atomicity (BW)" `Quick
          test_spanning_write_atomicity;
      ] );
    ( "pfs.durability",
      [
        Alcotest.test_case "fsync_file flushes one file" `Quick
          test_fsync_file_scoped;
        Alcotest.test_case "client crash loses only dirty data" `Quick
          test_client_crash_durability;
        QCheck_alcotest.to_alcotest ~rand:(Fuzz.Seed.rand_state ())
          prop_client_cache_counters;
        QCheck_alcotest.to_alcotest ~rand:(Fuzz.Seed.rand_state ())
          prop_client_cache_append_runs;
      ] );
    ( "pfs.readcache",
      [
        Alcotest.test_case "repeat reads served locally" `Quick
          test_read_cache_serves_repeats;
        Alcotest.test_case "invalidated on revocation" `Quick
          test_read_cache_invalidated_on_revoke;
        Alcotest.test_case "coherent with own flushed writes" `Quick
          test_read_cache_coherent_with_own_flushed_writes;
      ] );
    ( "pfs.dataserver",
      [
        Alcotest.test_case "extent cache cleanup bounds entries" `Quick
          test_extent_cache_cleanup;
        Alcotest.test_case "cleanup, force sync and coalesce pinned" `Quick
          test_extent_cache_cleanup_pin;
        Alcotest.test_case "coalescing resumes after a force sync" `Quick
          test_coalesce_after_force_sync;
        Alcotest.test_case "extent log rebuild (recovery)" `Quick
          test_extent_log_recovery;
        Alcotest.test_case "SN then op orders the cache, never the writer"
          `Quick test_extent_cache_order;
        Alcotest.test_case "event stream pinned, segmented gap flushes" `Quick
          test_segmented_gap_pin;
        QCheck_alcotest.to_alcotest ~rand:(Fuzz.Seed.rand_state ())
          prop_write_flush_matches_ingest;
        QCheck_alcotest.to_alcotest ~rand:(Fuzz.Seed.rand_state ())
          prop_coalesce_skip_matches_always_pass;
        Alcotest.test_case "gap flush over older device data" `Quick
          test_gap_flush_over_device_data;
      ] );
  ]
