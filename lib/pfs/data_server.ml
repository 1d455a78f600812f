open Ccpfs_util
open Dessim
open Netsim

type block = { b_range : Interval.t; b_tag : Content.tag }

type io_req =
  | Write_flush of {
      rid : int;
      extents : Content.tag Extent_map.t;
      ctl : Seqdlm.Types.ctl_msg list;
          (* control messages piggybacked on the flush (DESIGN.md §13):
             acks/downgrades applied before the blocks land, releases
             after — see [handle] *)
    }
  | Read of { rid : int; range : Interval.t }
  | Truncate of { rid : int; keep_below : int }

type io_resp =
  | Done
  | Data of (Interval.t * Content.tag option) list

type stats = {
  mutable flush_rpcs : int;
  mutable blocks_in : int;
  mutable bytes_received : int;
  mutable bytes_written : int;
  mutable bytes_discarded : int;
  mutable reads : int;
  mutable cleanup_runs : int;
  mutable cleanup_removed : int;
  mutable force_syncs : int;
  mutable cache_peak : int;
  mutable coalesced : int;
}

(* The extent cache orders bytes by (SN, op): the SN decides between
   conflicting locks, and the writer's per-client op counter breaks the
   tie between writes performed under the *same* (cached) lock — a lock
   reused across ops keeps one SN, and a re-flush of a later overwrite
   must still beat the voluntarily flushed earlier version.  SN
   uniqueness across clients (a lock-server invariant) makes the op
   comparison well-defined: equal SNs always belong to one client.  The
   cache holds each block's own tag, which the store shares, so an
   entry allocates no key; only its [sn] and [op] are ever compared. *)
type stripe = {
  mutable cache : Content.tag Extent_map.t; (* range -> max (SN, op) *)
  mutable store : Content.t; (* device contents *)
  mutable log : (Interval.t * Content.tag) list; (* extent log, newest first *)
  mutable coalesced_at : int;
      (* cache cardinality after the last coalescing pass; same-SN
         neighbour merging is amortised rather than per-block *)
  mutable seams_dirty : bool;
      (* false only when no two touching cache extents carry an equal
         (SN, op), so a coalescing pass would merge nothing: set by the
         inserts that may leave such a seam, cleared by a pass and by
         the paths that rebuild or empty the cache *)
}

(* Every path that removes cache entries calls this, so the next pass
   comes once the cache grows a quarter past what is left.  Left at a
   larger old size, the pass would wait for the cache to regrow to 1.25x
   that size, and when that is above the cleanup limit it never runs:
   the limit forces the next sync first.  It is never raised here, which
   would postpone merging the entries added since the last pass. *)
let shrunk st =
  st.coalesced_at <- min st.coalesced_at (Extent_map.cardinal st.cache)

type t = {
  eng : Engine.t;
  config : Config.t;
  node : Node.t;
  name : string;
  lock_server : Seqdlm.Lock_server.t;
  mutable lock_route : (int -> Seqdlm.Lock_server.t) option;
      (* sharded clusters install the authoritative rid -> owner route;
         None = the colocated server owns everything (pre-sharding) *)
  stripes : stripe Int_tbl.t;
  stats : stats;
  mutable ep : (io_req, io_resp) Rpc.endpoint option;
  mutable cleaning : bool;
  mutable drop_every : int; (* injected fault: 0 = off *)
  mutable blocks_seen : int;
  mutable always_coalesce : bool; (* test reference: never skip a pass *)
}

(* The lock server currently owning [rid]'s namespace.  The mSN queries
   of the cleanup task and the ctl application of piggybacked flushes
   must follow migrations: consulting the colocated server after the
   resource moved away would see an empty table and, e.g., reclaim cache
   entries whose write locks are still live on the new owner. *)
let lock_server_for t rid =
  match t.lock_route with Some route -> route rid | None -> t.lock_server

let stripe t rid =
  match Int_tbl.find_opt t.stripes rid with
  | Some s -> s
  | None ->
      let s =
        { cache = Extent_map.empty; store = Content.empty; log = [];
          coalesced_at = 0; seams_dirty = false }
      in
      Int_tbl.add t.stripes rid s;
      s

let total_cache_entries t =
  (Int_tbl.fold
     [@lint.allow "D001 integer sum over the stripes, commutative: order invisible"])
    (fun _ s acc -> acc + Extent_map.cardinal s.cache)
    t.stripes 0

(* Stripe sweeps iterate rids in this canonical order, never raw
   bucket order, which depends on the table's size history: the sweeps
   below have order-sensitive effects (a budget cut-off, lock-request
   issue order). *)
let stripe_rids t = Int_tbl.sorted_keys t.stripes

let pair_eq (a : Content.tag) (b : Content.tag) = a.sn = b.sn && a.op = b.op

(* [a] orders after [b]: a higher SN, or the same SN and a later op. *)
let newer (a : Content.tag) (b : Content.tag) =
  a.sn > b.sn || (a.sn = b.sn && a.op > b.op)

(* Merge continuous same-(SN, op) extents (Fig. 15), amortised: a full
   pass only once the cache has grown 25% past its last coalesced size. *)
let coalesce_limit st = (st.coalesced_at * 5 / 4) + 16
let coalesce_due st = Extent_map.cardinal st.cache > coalesce_limit st

(* A pass over a cache with no equal seam merges nothing and returns the
   cache as it was, so it is skipped; what it would have recorded, the
   cardinality it leaves, is recorded all the same. *)
let coalesce t st =
  if st.seams_dirty || t.always_coalesce then begin
    let n = Extent_map.cardinal st.cache in
    st.cache <- Extent_map.coalesce ~eq:pair_eq st.cache;
    st.coalesced_at <- Extent_map.cardinal st.cache;
    t.stats.coalesced <- t.stats.coalesced + n - st.coalesced_at;
    st.seams_dirty <- false
  end
  else st.coalesced_at <- Extent_map.cardinal st.cache

(* Whether any piece of an update set, now in the cache, meets an equal
   neighbour at either end — each other included, when two pieces
   touch.  Only those seams are new: the merge split old extents there
   and nowhere else. *)
let rec pieces_meet_equal cache = function
  | [] -> false
  | (seg : Interval.t) :: rest ->
      Extent_map.equal_at ~eq:pair_eq cache seg.lo
      || Extent_map.equal_at ~eq:pair_eq cache seg.hi
      || pieces_meet_equal cache rest

let received t ~size ~written =
  t.stats.bytes_received <- t.stats.bytes_received + size;
  t.stats.bytes_written <- t.stats.bytes_written + written;
  t.stats.bytes_discarded <- t.stats.bytes_discarded + (size - written)

(* Fig. 15 steps ①-④ for one incoming block. *)
let apply_block t st range (tag : Content.tag) =
  let cache, update_set =
    Extent_map.merge st.cache range tag ~keep_new:(fun ~old -> newer tag old)
  in
  st.cache <- cache;
  if (not st.seams_dirty) && pieces_meet_equal cache update_set then
    st.seams_dirty <- true;
  if coalesce_due st then coalesce t st;
  let written =
    List.fold_left
      (fun acc seg ->
        st.store <- Content.write st.store seg tag;
        if t.config.Config.extent_log then st.log <- (seg, tag) :: st.log;
        acc + Interval.length seg)
      0 update_set
  in
  received t ~size:(Interval.length range) ~written;
  written

let ingest t ~rid b = apply_block t (stripe t rid) b.b_range b.b_tag

(* A flush whose span [first.lo, last.hi) holds nothing in the cache:
   block by block, every merge would be a gap insert whose update set is
   the whole block.  So the flush's map is joined into the cache whole,
   sharing its nodes, cut only after the block where the per-block
   loop's coalescing pass would fire: with n0 entries before it, block
   j (from 0) leaves n0 + j + 1, so the pass runs after the first
   [coalesce_limit - n0 + 1] blocks.  The device takes every block as the
   loop would; [Content.write_all] joins the map there too when the
   span is free on the device (older data, e.g. after a cleanup, gets
   the blocks one by one). *)
let apply_gap t st extents =
  (* Each joined piece is checked for equal seams inside it and at its
     two ends; after a mid-join pass, the rest is checked afresh. *)
  let set_piece piece =
    st.cache <- Extent_map.set_all st.cache piece;
    if
      (not st.seams_dirty)
      && Extent_map.seams_equal ~eq:pair_eq st.cache piece
    then st.seams_dirty <- true
  in
  let rec join extents =
    let room = coalesce_limit st - Extent_map.cardinal st.cache in
    if Extent_map.cardinal extents <= room then set_piece extents
    else begin
      let head, rest = Extent_map.split_nth extents (max 0 room + 1) in
      set_piece head;
      coalesce t st;
      join rest
    end
  in
  join extents;
  st.store <- Content.write_all st.store extents;
  if t.config.Config.extent_log then
    Extent_map.iter (fun seg tag -> st.log <- (seg, tag) :: st.log) extents;
  t.blocks_seen <- t.blocks_seen + Extent_map.cardinal extents;
  let size = Extent_map.total_length extents in
  received t ~size ~written:size;
  size

(* The whole flush, in ascending block order. *)
let apply_flush t st extents =
  match Extent_map.span extents with
  | None -> 0
  | Some span when t.drop_every = 0 && not (Extent_map.overlaps st.cache span) ->
      apply_gap t st extents
  | Some _ ->
      Extent_map.fold
        (fun range tag acc ->
          t.blocks_seen <- t.blocks_seen + 1;
          if t.drop_every > 0 && t.blocks_seen mod t.drop_every = 0 then acc
          else acc + apply_block t st range tag)
        extents 0

(* Forward reference: the cleanup task is defined below but triggered
   from the write path the moment the threshold is crossed (§IV-B: "the
   server starts an asynchronous task"). *)
let cleanup_impl :
    (t -> unit) ref =
  ref (fun _ -> ())

let trigger_cleanup t =
  if not t.cleaning then begin
    t.cleaning <- true;
    Engine.spawn t.eng ~name:(t.name ^ ".cleanup-task") (fun () ->
        !cleanup_impl t;
        t.cleaning <- false)
  end

(* One server-side IO span nested inside Rpc's serve span (same courier
   tid), so flushes/reads/truncates are attributable per data server in
   the trace.  [f] returns the handler's steps; the span closes when
   they reach [Done], after the disk wait.  [args] is only called with
   the sink on. *)
let ds_span t name args f =
  let sink = Engine.trace_sink t.eng in
  if not (Obs.Trace.enabled sink) then f ()
  else begin
    let tid = Engine.current_pid t.eng in
    Obs.Trace.begin_span sink ~ts:(Engine.now t.eng) ~tid ~cat:"io"
      ~args:(args ()) name;
    let close () = Obs.Trace.end_span sink ~ts:(Engine.now t.eng) ~tid name in
    match f () with
    | steps -> Engine.on_done steps close
    | exception e ->
        close ();
        raise e
  end

(* The io endpoint's step handler.  Flushes and reads charge the disk
   as one [Sleep] of the delay the disk's FIFO reservation gives (a
   zero delay goes on at once), then reply; the request courier runs
   these steps, so no handler needs a fiber. *)
let handle t req ~reply : Engine.step =
  match req with
  | Write_flush { rid; extents; ctl } ->
      ds_span t "ds.write_flush"
        (fun () ->
          [ ("rid", Obs.Json.Int rid);
            ("blocks", Obs.Json.Int (Extent_map.cardinal extents));
            ("ctl", Obs.Json.Int (List.length ctl)) ])
      @@ fun () ->
      (* Piggybacked control traffic splits around the blocks (DESIGN.md
         §13): acks and downgrades land first — they only weaken the
         sender's claim, and an early-grantable writer should see the
         downgrade before the flush's disk time elapses — while releases
         land after the blocks are applied and on the device, so the
         next holder is granted only once the released lock's data is
         durable here (the paper's release-on-last-flush-block rule). *)
      let pre, post =
        List.partition
          (function Seqdlm.Types.Release _ -> false | _ -> true)
          ctl
      in
      List.iter (Seqdlm.Lock_server.control (lock_server_for t rid)) pre;
      let st = stripe t rid in
      t.stats.flush_rpcs <- t.stats.flush_rpcs + 1;
      t.stats.blocks_in <- t.stats.blocks_in + Extent_map.cardinal extents;
      let written = apply_flush t st extents in
      let entries = total_cache_entries t in
      if entries > t.stats.cache_peak then t.stats.cache_peak <- entries;
      if entries > t.config.Config.extent_cache_limit then trigger_cleanup t;
      (* Device occupancy for the update set (the discarded parts never
         reach the device). *)
      Engine.Sleep
        ( Node.disk_write t.node written,
          fun () ->
            List.iter (Seqdlm.Lock_server.control (lock_server_for t rid)) post;
            reply Done;
            Engine.Done )
  | Read { rid; range } ->
      ds_span t "ds.read"
        (fun () ->
          [ ("rid", Obs.Json.Int rid);
            ("len", Obs.Json.Int (Interval.length range)) ])
      @@ fun () ->
      let st = stripe t rid in
      t.stats.reads <- t.stats.reads + 1;
      Engine.Sleep
        ( Resource.reserve (Node.disk t.node)
            (float_of_int (Interval.length range)),
          fun () ->
            reply (Data (Content.read st.store range));
            Engine.Done )
  | Truncate { rid; keep_below } ->
      ds_span t "ds.truncate"
        (fun () ->
          [ ("rid", Obs.Json.Int rid);
            ("keep_below", Obs.Json.Int keep_below) ])
      @@ fun () ->
      let st = stripe t rid in
      let keep_below = max 0 keep_below in
      st.store <- Content.truncate st.store keep_below;
      st.cache <- snd (Extent_map.cut st.cache (Interval.to_eof ~lo:keep_below));
      shrunk st;
      reply Done;
      Engine.Done

(* The asynchronous extent-cache cleanup task (§IV-B).  Removes entries
   whose SN is no larger than the mSN of unreleased write locks over the
   entry's range; falls back to force-synchronising every stripe when the
   cache stays over the limit. *)
let cleanup_round t =
  t.stats.cleanup_runs <- t.stats.cleanup_runs + 1;
  let budget = ref t.config.Config.cleanup_batch in
  let removed = ref 0 in
  List.iter
    (fun rid ->
      let st = Int_tbl.find t.stripes rid in
      if !budget > 0 then begin
        let examined = ref [] in
        Extent_map.iter
          (fun iv (tag : Content.tag) ->
            if !budget > 0 then begin
              decr budget;
              let reclaimable =
                match
                  Seqdlm.Lock_server.min_unreleased_write_sn (lock_server_for t rid)
                    rid iv
                with
                | None -> true
                | Some msn -> tag.sn <= msn
              in
              if reclaimable then examined := iv :: !examined
            end)
          st.cache;
        List.iter
          (fun iv ->
            st.cache <- Extent_map.remove st.cache iv;
            incr removed)
          !examined;
        shrunk st
      end)
    (stripe_rids t);
  t.stats.cleanup_removed <- t.stats.cleanup_removed + !removed;
  !removed

let force_sync t =
  t.stats.force_syncs <- t.stats.force_syncs + 1;
  let pending = ref 0 in
  let done_ = Condition.create t.eng in
  List.iter
    (fun rid ->
      incr pending;
      Seqdlm.Lock_server.sync_resource (lock_server_for t rid) rid ~on_behalf:(-1)
        ~reply:(fun () ->
          decr pending;
          if !pending = 0 then Condition.broadcast done_))
    (stripe_rids t);
  if !pending > 0 then Condition.wait_until done_ (fun () -> !pending = 0);
  (* Every write lock has been released, so all data is on the device:
     caches and logs can be cleared. *)
  Int_tbl.iter_sorted
    (fun _ st ->
      t.stats.cleanup_removed <-
        t.stats.cleanup_removed + Extent_map.cardinal st.cache;
      st.cache <- Extent_map.empty;
      shrunk st;
      st.seams_dirty <- false;
      st.log <- [])
    t.stripes

let () =
  cleanup_impl :=
    fun t ->
      ignore (cleanup_round t);
      if total_cache_entries t > t.config.Config.extent_cache_limit then
        force_sync t

let cleanup_daemon t () =
  while true do
    Engine.sleep t.eng t.config.Config.cleanup_period;
    if total_cache_entries t > t.config.Config.extent_cache_limit then
      trigger_cleanup t
  done

let create eng params config ~node ~name ~lock_server =
  let t =
    {
      eng; config; node; name; lock_server;
      lock_route = None;
      stripes = Int_tbl.create 64;
      stats =
        {
          flush_rpcs = 0; blocks_in = 0; bytes_received = 0; bytes_written = 0;
          bytes_discarded = 0; reads = 0; cleanup_runs = 0; cleanup_removed = 0;
          force_syncs = 0; cache_peak = 0; coalesced = 0;
        };
      ep = None;
      cleaning = false;
      drop_every = 0;
      blocks_seen = 0;
      always_coalesce = false;
    }
  in
  t.ep <-
    Some
      (* Write_flush and Read occupy the disk before replying. *)
      (Rpc.step_endpoint eng params ~node ~name:(name ^ ".io")
         ~handler:(fun req ~reply -> handle t req ~reply));
  Engine.spawn eng ~daemon:true ~name:(name ^ ".cleanup") (cleanup_daemon t);
  t

let endpoint t = Option.get t.ep
let set_lock_route t route = t.lock_route <- Some route
let contents t rid = (stripe t rid).store
let extent_cache_entries t = total_cache_entries t

let extent_cache_of t rid =
  List.map (fun (iv, (tag : Content.tag)) -> (iv, tag.sn))
    (Extent_map.to_list (stripe t rid).cache)

let rebuild_pairs t rid =
  if not t.config.Config.extent_log then
    invalid_arg (t.name ^ ": extent log disabled");
  let st = stripe t rid in
  let rebuilt =
    List.fold_left
      (fun m (iv, tag) ->
        fst (Extent_map.merge m iv tag ~keep_new:(fun ~old -> newer tag old)))
      Extent_map.empty (List.rev st.log)
  in
  Extent_map.coalesce ~eq:pair_eq rebuilt

let rebuild_extent_cache_from_log t rid =
  List.map (fun (iv, (tag : Content.tag)) -> (iv, tag.sn))
    (Extent_map.to_list (rebuild_pairs t rid))

let crash_and_rebuild t =
  if not t.config.Config.extent_log then
    invalid_arg (t.name ^ ": recovery needs the extent log");
  List.iter
    (fun rid ->
      let st = Int_tbl.find t.stripes rid in
      st.cache <- rebuild_pairs t rid;
      st.coalesced_at <- Extent_map.cardinal st.cache;
      st.seams_dirty <- false)
    (stripe_rids t)

let max_logged_sn t rid =
  match Int_tbl.find_opt t.stripes rid with
  | None -> None
  | Some st ->
      List.fold_left
        (fun acc (_, (tag : Content.tag)) ->
          match acc with
          | None -> Some tag.sn
          | Some m -> Some (max m tag.sn))
        None st.log

let stats t = t.stats
let node t = t.node

let inject_drop_block t ~every =
  if every <= 0 then invalid_arg (t.name ^ ": inject_drop_block: every <= 0");
  t.drop_every <- every

let always_coalesce t = t.always_coalesce <- true

let io_resp_to_string = function
  | Done -> "Done"
  | Data segs -> Printf.sprintf "Data(%d segments)" (List.length segs)
