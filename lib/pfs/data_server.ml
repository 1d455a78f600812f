open Ccpfs_util
open Dessim
open Netsim

type block = { b_range : Interval.t; b_sn : int; b_tag : Content.tag }

type io_req =
  | Write_flush of {
      rid : int;
      blocks : block list;
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
   comparison well-defined: equal SNs always belong to one client. *)
type stripe = {
  mutable cache : (int * int) Extent_map.t; (* range -> max (SN, op) *)
  mutable store : Content.t; (* device contents *)
  mutable log : (Interval.t * int * int) list; (* extent log, newest first *)
  mutable coalesced_at : int;
      (* cache cardinality after the last coalescing pass; same-SN
         neighbour merging is amortised rather than per-block *)
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
  params : Params.t;
  config : Config.t;
  node : Node.t;
  name : string;
  lock_server : Seqdlm.Lock_server.t;
  mutable lock_route : (int -> Seqdlm.Lock_server.t) option;
      (* sharded clusters install the authoritative rid -> owner route;
         None = the colocated server owns everything (pre-sharding) *)
  stripes : (int, stripe) Hashtbl.t;
  stats : stats;
  mutable ep : (io_req, io_resp) Rpc.endpoint option;
  mutable cleaning : bool;
  mutable drop_every : int; (* injected fault: 0 = off *)
  mutable blocks_seen : int;
}

(* The lock server currently owning [rid]'s namespace.  The mSN queries
   of the cleanup task and the ctl application of piggybacked flushes
   must follow migrations: consulting the colocated server after the
   resource moved away would see an empty table and, e.g., reclaim cache
   entries whose write locks are still live on the new owner. *)
let lock_server_for t rid =
  match t.lock_route with Some route -> route rid | None -> t.lock_server

let stripe t rid =
  match Hashtbl.find_opt t.stripes rid with
  | Some s -> s
  | None ->
      let s =
        { cache = Extent_map.empty; store = Content.empty; log = [];
          coalesced_at = 0 }
      in
      Hashtbl.add t.stripes rid s;
      s

let total_cache_entries t =
  Det_tbl.fold_sorted ~cmp:Int.compare
    (fun _ s acc -> acc + Extent_map.cardinal s.cache)
    t.stripes 0

(* Stripe sweeps iterate rids in this canonical order, never raw
   [Hashtbl.iter] order: under randomized hashing the latter varies from
   process to process, and the sweeps below have order-sensitive effects
   (a budget cut-off, lock-request issue order). *)
let stripe_rids t = Det_tbl.sorted_keys ~cmp:Int.compare t.stripes

let pair_eq (a : int * int) (b : int * int) = a = b

(* Fig. 15 steps ①-④ for one incoming block. *)
let apply_block t st (b : block) =
  let key = (b.b_sn, b.b_tag.Content.op) in
  let cache, update_set =
    Extent_map.merge st.cache b.b_range key ~keep_new:(fun ~old -> key > old)
  in
  st.cache <- cache;
  (* Merge continuous same-SN extents (Fig. 15), amortised: a full pass
     only once the cache has grown 25% past its last coalesced size. *)
  let n = Extent_map.cardinal st.cache in
  if n > (st.coalesced_at * 5 / 4) + 16 then begin
    st.cache <- Extent_map.coalesce ~eq:pair_eq st.cache;
    st.coalesced_at <- Extent_map.cardinal st.cache;
    t.stats.coalesced <- t.stats.coalesced + n - st.coalesced_at
  end;
  let written =
    List.fold_left
      (fun acc seg ->
        st.store <- Content.write st.store seg b.b_tag;
        if t.config.Config.extent_log then
          st.log <- (seg, b.b_sn, b.b_tag.Content.op) :: st.log;
        acc + Interval.length seg)
      0 update_set
  in
  let size = Interval.length b.b_range in
  t.stats.bytes_received <- t.stats.bytes_received + size;
  t.stats.bytes_written <- t.stats.bytes_written + written;
  t.stats.bytes_discarded <- t.stats.bytes_discarded + (size - written);
  written

let ingest t ~rid b = apply_block t (stripe t rid) b

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
   the trace. *)
let ds_span t name args f =
  let sink = Engine.trace_sink t.eng in
  if not (Obs.Trace.enabled sink) then f ()
  else begin
    let tid = Engine.current_pid t.eng in
    Obs.Trace.begin_span sink ~ts:(Engine.now t.eng) ~tid ~cat:"io" ~args name;
    match f () with
    | v ->
        Obs.Trace.end_span sink ~ts:(Engine.now t.eng) ~tid name;
        v
    | exception e ->
        Obs.Trace.end_span sink ~ts:(Engine.now t.eng) ~tid name;
        raise e
  end

let handle t req ~reply =
  match req with
  | Write_flush { rid; blocks; ctl } ->
      ds_span t "ds.write_flush"
        [ ("rid", Obs.Json.Int rid);
          ("blocks", Obs.Json.Int (List.length blocks));
          ("ctl", Obs.Json.Int (List.length ctl)) ]
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
      t.stats.blocks_in <- t.stats.blocks_in + List.length blocks;
      let written =
        List.fold_left
          (fun acc b ->
            t.blocks_seen <- t.blocks_seen + 1;
            if t.drop_every > 0 && t.blocks_seen mod t.drop_every = 0 then acc
            else acc + apply_block t st b)
          0 blocks
      in
      let entries = total_cache_entries t in
      if entries > t.stats.cache_peak then t.stats.cache_peak <- entries;
      if entries > t.config.Config.extent_cache_limit then trigger_cleanup t;
      (* Device occupancy for the update set (the discarded parts never
         reach the device). *)
      Node.disk_write t.node written;
      List.iter (Seqdlm.Lock_server.control (lock_server_for t rid)) post;
      reply Done
  | Read { rid; range } ->
      ds_span t "ds.read"
        [ ("rid", Obs.Json.Int rid);
          ("len", Obs.Json.Int (Interval.length range)) ]
      @@ fun () ->
      let st = stripe t rid in
      t.stats.reads <- t.stats.reads + 1;
      Resource.consume (Node.disk t.node) (float_of_int (Interval.length range));
      reply (Data (Content.read st.store range))
  | Truncate { rid; keep_below } ->
      ds_span t "ds.truncate"
        [ ("rid", Obs.Json.Int rid);
          ("keep_below", Obs.Json.Int keep_below) ]
      @@ fun () ->
      let st = stripe t rid in
      if keep_below <= 0 then begin
        st.store <- Content.empty;
        st.cache <- Extent_map.empty
      end
      else begin
        let keep = Content.read st.store (Interval.v ~lo:0 ~hi:keep_below) in
        st.store <-
          List.fold_left
            (fun c (seg, tag) ->
              match tag with Some tg -> Content.write c seg tg | None -> c)
            Content.empty keep;
        st.cache <- Extent_map.remove st.cache (Interval.to_eof ~lo:keep_below)
      end;
      shrunk st;
      reply Done

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
      let st = Hashtbl.find t.stripes rid in
      if !budget > 0 then begin
        let examined = ref [] in
        Extent_map.iter
          (fun iv (sn, _op) ->
            if !budget > 0 then begin
              decr budget;
              let reclaimable =
                match
                  Seqdlm.Lock_server.min_unreleased_write_sn (lock_server_for t rid)
                    rid iv
                with
                | None -> true
                | Some msn -> sn <= msn
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
  Det_tbl.iter_sorted ~cmp:Int.compare
    (fun _ st ->
      t.stats.cleanup_removed <-
        t.stats.cleanup_removed + Extent_map.cardinal st.cache;
      st.cache <- Extent_map.empty;
      shrunk st;
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
      eng; params; config; node; name; lock_server;
      lock_route = None;
      stripes = Hashtbl.create 64;
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
    }
  in
  t.ep <-
    Some
      (Rpc.endpoint eng params ~node ~name:(name ^ ".io")
         ~handler:(fun req ~reply -> handle t req ~reply));
  Engine.spawn eng ~daemon:true ~name:(name ^ ".cleanup") (cleanup_daemon t);
  t

let endpoint t = Option.get t.ep
let set_lock_route t route = t.lock_route <- Some route
let contents t rid = (stripe t rid).store
let extent_cache_entries t = total_cache_entries t

let extent_cache_of t rid =
  List.map (fun (iv, (sn, _op)) -> (iv, sn))
    (Extent_map.to_list (stripe t rid).cache)

let rebuild_pairs t rid =
  if not t.config.Config.extent_log then
    invalid_arg (t.name ^ ": extent log disabled");
  let st = stripe t rid in
  let rebuilt =
    List.fold_left
      (fun m (iv, sn, op) ->
        fst (Extent_map.merge m iv (sn, op) ~keep_new:(fun ~old -> (sn, op) > old)))
      Extent_map.empty (List.rev st.log)
  in
  Extent_map.coalesce ~eq:pair_eq rebuilt

let rebuild_extent_cache_from_log t rid =
  List.map (fun (iv, (sn, _op)) -> (iv, sn))
    (Extent_map.to_list (rebuild_pairs t rid))

let crash_and_rebuild t =
  if not t.config.Config.extent_log then
    invalid_arg (t.name ^ ": recovery needs the extent log");
  List.iter
    (fun rid ->
      let st = Hashtbl.find t.stripes rid in
      st.cache <- rebuild_pairs t rid;
      st.coalesced_at <- Extent_map.cardinal st.cache)
    (stripe_rids t)

let max_logged_sn t rid =
  match Hashtbl.find_opt t.stripes rid with
  | None -> None
  | Some st ->
      List.fold_left
        (fun acc (_, sn, _) ->
          match acc with
          | None -> Some sn
          | Some m -> Some (max m sn))
        None st.log

let stats t = t.stats
let node t = t.node

let inject_drop_block t ~every =
  if every <= 0 then invalid_arg (t.name ^ ": inject_drop_block: every <= 0");
  t.drop_every <- every

let io_resp_to_string = function
  | Done -> "Done"
  | Data segs -> Printf.sprintf "Data(%d segments)" (List.length segs)
