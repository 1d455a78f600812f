open Ccpfs_util
open Dessim
open Netsim

(* One stripe's dirty extents and their byte count, kept in step so
   the flush daemon can rank stripes without walking their maps.  A
   write that starts at or past the end of the stripe's dirty data
   (every write of a sequential or strided writer) is consed onto
   [run] instead of path-copying [map]; the run joins [map] in one
   [Extent_map.append] when it holds [run_max] extents, and before
   anything reads [map] ([settle]).  So [map] after a settle is the
   map successive inserts would have built. *)
type stripe = {
  mutable map : Content.tag Extent_map.t;
  mutable run : (Interval.t * Content.tag) list; (* newest first *)
  mutable run_len : int;
  mutable tail : int;
      (* at or past the end of every dirty extent, [map]'s and [run]'s
         alike; 0 when there is none, since no range starts below 0 *)
  mutable bytes : int;
}

(* Bounds the extents a stripe holds outside [map] (and so the tags
   kept alive only by a run): a join costs O(run_max + log n), so the
   per-append share of the map's path copy is already small at 8. *)
let run_max = 8

let settle d =
  if d.run_len > 0 then begin
    d.map <- Extent_map.append d.map d.run;
    d.run <- [];
    d.run_len <- 0
  end

let end_of map = match Extent_map.span map with Some s -> s.hi | None -> 0

type t = {
  eng : Engine.t;
  params : Params.t;
  config : Config.t;
  node : Node.t;
  client_id : int;
  io_route : int -> (Data_server.io_req, Data_server.io_resp) Rpc.endpoint;
  dirty : stripe Int_tbl.t;
  clean : Content.tag option Extent_map.t ref Int_tbl.t;
  mutable clean_total : int;
  mutable r_hits : int;
  mutable r_misses : int;
  mutable dirty_total : int;
  mutable peak : int;
  space : Condition.t; (* signalled when dirty bytes shrink *)
  mutable cache_seconds : float;
  mutable flushed_bytes : int;
  mutable n_flush_rpcs : int;
  mutable audit : (rid:int -> unit) option;
  mutable write_obs :
    (rid:int -> range:Interval.t -> sn:int -> op:int -> unit) option;
  mutable rel : (Rpc.reliability * Rpc.View.t) option;
      (* flushes go through the fenced retry path when the cluster runs
         with failover enabled: a Write_flush must survive a data-server
         outage, and at-most-once dedup keeps retries idempotent *)
  mutable ctl_source : (rid:int -> Seqdlm.Types.ctl_msg list) option;
      (* piggybacking (DESIGN.md §13): the lock client's pending
         acks/downgrades/releases for the stripe's server, drained here
         so they ride the flush RPC instead of going as separate
         messages; their bytes are added to the wire size *)
}

let dirty_stripe t rid =
  match Int_tbl.find_opt t.dirty rid with
  | Some d -> d
  | None ->
      let d =
        { map = Extent_map.empty; run = []; run_len = 0; tail = 0; bytes = 0 }
      in
      Int_tbl.add t.dirty rid d;
      d

let account t delta =
  t.dirty_total <- t.dirty_total + delta;
  if t.dirty_total > t.peak then t.peak <- t.dirty_total;
  if delta < 0 then Condition.broadcast t.space

(* Cut the dirty extents under [ranges] out of the cache and ship them
   in one batched flush RPC, as one persistent map: a whole-stripe
   flush hands the dirty map over as it is, and the cuts of a lock's
   sorted, disjoint ranges each land in a gap of the ones before.  The
   bytes are accounted once, which wakes the same waiters as one call
   per block would, since none can run in between. *)
let flush t ~rid ~ranges =
  let d = dirty_stripe t rid in
  settle d;
  let extents =
    List.fold_left
      (fun acc range ->
        let taken, left = Extent_map.cut d.map range in
        d.map <- left;
        Extent_map.set_all acc taken)
      Extent_map.empty ranges
  in
  d.tail <- end_of d.map;
  if not (Extent_map.is_empty extents) then begin
    let bytes = Extent_map.total_length extents in
    d.bytes <- d.bytes - bytes;
    account t (-bytes);
    t.flushed_bytes <- t.flushed_bytes + bytes;
    t.n_flush_rpcs <- t.n_flush_rpcs + 1;
    let ctl =
      match t.ctl_source with None -> [] | Some f -> f ~rid
    in
    let wire_bytes =
      (if t.config.Config.flush_wire_page_only then
         min bytes t.config.Config.page
       else bytes)
      + (List.length ctl * t.params.Params.ctl_msg_bytes)
    in
    let do_rpc () =
      let ep = t.io_route rid in
      let req = Data_server.Write_flush { rid; extents; ctl } in
      match
        (match t.rel with
        | None -> Rpc.call ep ~src:t.node ~req_bytes:wire_bytes req
        | Some (rel, view) ->
            Rpc.call_reliable ep ~src:t.node ~req_bytes:wire_bytes
              ~reliability:rel ~view req)
      with
      | Data_server.Done -> ()
      | Data_server.Data _ as r ->
          Protocol_error.fail
            ~endpoint:(Rpc.name (t.io_route rid))
            ~request:
              (Printf.sprintf "Write_flush rid=%d blocks=%d bytes=%d" rid
                 (Extent_map.cardinal extents) bytes)
            ~got:(Data_server.io_resp_to_string r)
    in
    let sink = Engine.trace_sink t.eng in
    if not (Obs.Trace.enabled sink) then do_rpc ()
    else begin
      let tid = Engine.current_pid t.eng in
      let args =
        [
          ("rid", Obs.Json.Int rid);
          ("bytes", Obs.Json.Int bytes);
          ("blocks", Obs.Json.Int (Extent_map.cardinal extents));
        ]
      in
      Obs.Trace.begin_span sink ~ts:(Engine.now t.eng) ~tid ~cat:"io" ~args
        "cache.flush";
      match do_rpc () with
      | () -> Obs.Trace.end_span sink ~ts:(Engine.now t.eng) ~tid "cache.flush"
      | exception e ->
          Obs.Trace.end_span sink ~ts:(Engine.now t.eng) ~tid "cache.flush";
          raise e
    end
  end

let flush_all t =
  List.iter
    (fun rid -> flush t ~rid ~ranges:[ Interval.to_eof ~lo:0 ])
    (Int_tbl.sorted_keys t.dirty)

let drain_order t =
  Int_tbl.fold_sorted
    (fun rid d acc -> if d.bytes > 0 then (d.bytes, rid) :: acc else acc)
    t.dirty []
  (* ties broken by rid: equal-sized stripes are the common case, and
     bytes alone would leave their flush order to the traversal order —
     sorted-key iteration keeps it stable *)
  |> List.sort (fun (a, ar) (b, br) ->
         match Int.compare b a with 0 -> Int.compare ar br | c -> c)

(* The voluntary flush daemon: a step process that sleeps
   [flush_period] and, while the cache holds no more than [dirty_min]
   bytes, goes back to sleep without a fiber, so an idle wake-up costs
   no effect round trip.  Once there is something to drain it becomes a
   fiber (the flush RPCs block) and runs the same loop through
   [Engine.run_steps]: the events are those of a fiber running the loop
   from the start. *)
let flush_daemon t =
  let rec idle () = Engine.Sleep (t.config.Config.flush_period, check)
  and check () =
    if t.dirty_total > t.config.Config.dirty_min then
      Engine.Fiber
        (fun () ->
          (* Voluntary flushing: drain whole stripes until under the
             threshold, largest first. *)
          List.iter
            (fun (_, rid) ->
              if t.dirty_total > t.config.Config.dirty_min then
                flush t ~rid ~ranges:[ Interval.to_eof ~lo:0 ])
            (drain_order t);
          Engine.run_steps t.eng (idle ()))
    else idle ()
  in
  idle

let create eng params config ~node ~client_id ~io_route =
  let t =
    {
      eng; params; config; node; client_id; io_route;
      dirty = Int_tbl.create 16;
      clean = Int_tbl.create 16;
      clean_total = 0;
      r_hits = 0;
      r_misses = 0;
      dirty_total = 0;
      peak = 0;
      space = Condition.create eng;
      cache_seconds = 0.;
      flushed_bytes = 0;
      n_flush_rpcs = 0;
      audit = None;
      write_obs = None;
      rel = None;
      ctl_source = None;
    }
  in
  Engine.spawn_steps eng ~daemon:true
    ~name:(Engine.proc_name (Printf.sprintf "c%d.flushd" client_id))
    (flush_daemon t);
  t

let write t ~rid ~range ~sn ~op =
  (* Forced-flush backpressure (§IV-C1): block while the cache is full. *)
  Condition.wait_until ~ctx:"cache.space" t.space (fun () ->
      t.dirty_total < t.config.Config.dirty_max);
  let t0 = Engine.now t.eng in
  Resource.consume (Node.mem t.node) (float_of_int (Interval.length range));
  t.cache_seconds <- t.cache_seconds +. (Engine.now t.eng -. t0);
  let d = dirty_stripe t rid in
  let tag = { Content.writer = t.client_id; op; sn } in
  let covered =
    if range.lo >= d.tail then begin
      (* Past every dirty extent: a gap insert, as [merge] would make. *)
      d.run <- (range, tag) :: d.run;
      d.run_len <- d.run_len + 1;
      if d.run_len >= run_max then settle d;
      0
    end
    else begin
      settle d;
      let covered =
        List.fold_left
          (fun acc (iv, _) -> acc + Interval.length iv)
          0
          (Extent_map.overlapping d.map range)
      in
      let m, _ =
        Extent_map.merge d.map range tag ~keep_new:(fun ~old ->
            sn >= old.Content.sn)
      in
      d.map <- m;
      covered
    end
  in
  if range.hi > d.tail then d.tail <- range.hi;
  d.bytes <- d.bytes + Interval.length range - covered;
  (* Keep the clean cache coherent with our own writes, otherwise a read
     after the dirty data has been flushed away would see the pre-write
     version. *)
  (match Int_tbl.find_opt t.clean rid with
  | Some cm when not (Extent_map.is_empty !cm) ->
      cm := Extent_map.set !cm range (Some tag)
  | Some _ | None -> ());
  account t (Interval.length range - covered);
  (match t.write_obs with Some f -> f ~rid ~range ~sn ~op | None -> ());
  match t.audit with Some f -> f ~rid | None -> ()

let has_dirty t ~rid ~ranges =
  match Int_tbl.find_opt t.dirty rid with
  | None -> false
  | Some d ->
      settle d;
      List.exists (Extent_map.overlaps d.map) ranges

let local_view t ~rid ~range =
  match Int_tbl.find_opt t.dirty rid with
  | None -> []
  | Some d ->
      settle d;
      Extent_map.overlapping d.map range

let clean_map t rid =
  match Int_tbl.find_opt t.clean rid with
  | Some m -> m
  | None ->
      let m = ref Extent_map.empty in
      Int_tbl.add t.clean rid m;
      m

let store_clean t ~rid segments =
  let m = clean_map t rid in
  List.iter
    (fun (iv, tag) ->
      t.clean_total <- t.clean_total + Interval.length iv;
      m := Extent_map.set !m iv tag)
    segments

let clean_covers t ~rid ~range =
  match Int_tbl.find_opt t.clean rid with
  | None -> false
  | Some m ->
      let covers = Extent_map.covered !m range in
      if covers then t.r_hits <- t.r_hits + 1 else t.r_misses <- t.r_misses + 1;
      covers

let clean_view t ~rid ~range =
  match Int_tbl.find_opt t.clean rid with
  | None -> []
  | Some m -> Extent_map.overlapping !m range

let invalidate_clean t ~rid ~ranges =
  match Int_tbl.find_opt t.clean rid with
  | None -> ()
  | Some m ->
      List.iter
        (fun range ->
          List.iter
            (fun (iv, _) ->
              t.clean_total <- t.clean_total - Interval.length iv)
            (Extent_map.overlapping !m range);
          m := Extent_map.remove !m range)
        ranges

let drop_clean t ~rid ~range =
  invalidate_clean t ~rid ~ranges:[ range ];
  let d = dirty_stripe t rid in
  settle d;
  let covered =
    List.fold_left
      (fun acc (iv, _) -> acc + Interval.length iv)
      0
      (Extent_map.overlapping d.map range)
  in
  d.map <- Extent_map.remove d.map range;
  d.tail <- end_of d.map;
  d.bytes <- d.bytes - covered;
  account t (-covered)

let lose_all_dirty t =
  let lost = t.dirty_total in
  Int_tbl.iter_sorted
    (fun _ d ->
      d.map <- Extent_map.empty;
      d.run <- [];
      d.run_len <- 0;
      d.tail <- 0;
      d.bytes <- 0)
    t.dirty;
  t.dirty_total <- 0;
  Condition.broadcast t.space;
  lost

let dirty_view t =
  Int_tbl.fold_sorted
    (fun rid d acc ->
      settle d;
      match Extent_map.to_list d.map with
      | [] -> acc
      | extents -> (rid, extents) :: acc)
    t.dirty []
  |> List.rev

let set_audit t f = t.audit <- Some f
let set_write_observer t f = t.write_obs <- Some f
let set_reliability t rel view = t.rel <- Some (rel, view)
let set_ctl_source t f = t.ctl_source <- Some f
let client_id t = t.client_id
let read_cache_hits t = t.r_hits
let read_cache_misses t = t.r_misses
let dirty_bytes t = t.dirty_total

let stripe_dirty_bytes t ~rid =
  match Int_tbl.find_opt t.dirty rid with Some d -> d.bytes | None -> 0
let dirty_peak t = t.peak
let cache_write_seconds t = t.cache_seconds
let bytes_flushed t = t.flushed_bytes
let flush_rpcs t = t.n_flush_rpcs
