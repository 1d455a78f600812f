open Ccpfs_util
open Dessim
open Netsim
open Seqdlm

type t = {
  eng : Engine.t;
  params : Params.t;
  config : Config.t;
  node : Node.t;
  meta : (Meta_server.req, Meta_server.resp) Rpc.endpoint;
  io_route : int -> (Data_server.io_req, Data_server.io_resp) Rpc.endpoint;
  cache : Client_cache.t;
  locks : Lock_client.t;
  policy : Policy.t;
  rel : Rpc.reliability option;
  view : Rpc.View.t;
  mutable op_counter : int;
  mutable w_bytes : int;
  mutable r_bytes : int;
}

type file = { f_fid : int; f_layout : Layout.t }

let create eng params config ~node ~client_id ~meta ~lock_route ~io_route
    ~policy ~reliability =
  let cache = Client_cache.create eng params config ~node ~client_id ~io_route in
  let of_lock f ~rid ~ranges = f ~rid ~ranges:(ranges : Ranges.t :> _ list) in
  let hooks =
    {
      Lock_client.flush = of_lock (Client_cache.flush cache);
      has_dirty = of_lock (Client_cache.has_dirty cache);
      invalidate = of_lock (Client_cache.invalidate_clean cache);
    }
  in
  let locks =
    Lock_client.create eng params ~node ~client_id ~route:lock_route ~hooks
  in
  let view = Lock_client.view locks in
  (match reliability with
  | Some rel ->
      (* One epoch view per client: lock, control and data-server I/O
         traffic are all fenced by the same recovery epochs. *)
      Lock_client.set_reliability locks rel;
      Client_cache.set_reliability cache rel view
  | None ->
      (* Piggybacking (DESIGN.md §13) needs the plain transport: under a
         retry policy control messages must stay individually reliable.
         It is a SeqDLM protocol feature — release on the last flush
         block (§III-B) — so it follows the policy flag: the
         traditional baselines send every control message on its own
         RPC. *)
      if policy.Policy.piggyback_release then begin
        Lock_client.set_piggyback locks;
        Client_cache.set_ctl_source cache (fun ~rid ->
            Lock_client.take_piggyback locks ~rid)
      end);
  {
    eng; params; config; node; meta; io_route; cache; locks;
    policy; rel = reliability; view;
    op_counter = 0; w_bytes = 0; r_bytes = 0;
  }

(* Data-server I/O: fenced + retried when the cluster runs with a retry
   policy, the plain transport otherwise. *)
let io_call t rid ?resp_bytes req =
  let ep = t.io_route rid in
  match t.rel with
  | None -> Rpc.call ep ~src:t.node ?resp_bytes req
  | Some rel ->
      Rpc.call_reliable ep ~src:t.node ?resp_bytes ~reliability:rel
        ~view:t.view req

let open_file t ?(create = false) ?(layout = Layout.v ~stripe_count:1 ()) path =
  match
    Rpc.call t.meta ~src:t.node (Meta_server.Open { path; create; layout })
  with
  | Meta_server.Attrs a -> { f_fid = a.fid; f_layout = a.layout }
  | Meta_server.Enoent -> raise Not_found
  | Meta_server.Ok as r ->
      Protocol_error.fail ~endpoint:(Rpc.name t.meta)
        ~request:(Printf.sprintf "Open %S" path)
        ~got:(Meta_server.resp_to_string r)

let fid f = f.f_fid
let layout f = f.f_layout

let overhead t =
  if t.params.Params.client_io_overhead > 0. then
    Engine.sleep t.eng t.params.Params.client_io_overhead

(* One application-level IO span on the calling process's tid.  The end
   event is emitted on the exception path too, so traces always pair up.
   [args] is only called with the sink on. *)
let io_span t name args f =
  let sink = Engine.trace_sink t.eng in
  if not (Obs.Trace.enabled sink) then f ()
  else begin
    let tid = Engine.current_pid t.eng in
    Obs.Trace.begin_span sink ~ts:(Engine.now t.eng) ~tid ~cat:"io"
      ~args:(args ()) name;
    match f () with
    | v ->
        Obs.Trace.end_span sink ~ts:(Engine.now t.eng) ~tid name;
        v
    | exception e ->
        Obs.Trace.end_span sink ~ts:(Engine.now t.eng) ~tid name;
        raise e
  end

(* Lock the stripes in rid order (the fixed order is what makes
   multi-stripe BW acquisition deadlock-free). *)
let acquire_stripes t file ~mode ~by_stripe =
  List.map
    (fun (stripe, lock_ranges) ->
      let rid = Layout.rid ~fid:file.f_fid ~stripe in
      let h = Lock_client.acquire t.locks ~rid ~mode ~ranges:lock_ranges in
      (rid, h))
    (List.sort (fun (a, _) (b, _) -> Int.compare a b) by_stripe)

let write_ranges t ~rid ~sn ~op (ranges : Ranges.t) =
  List.iter
    (fun range ->
      Client_cache.write t.cache ~rid ~range ~sn ~op;
      t.w_bytes <- t.w_bytes + Interval.length range)
    (ranges :> Interval.t list)

let do_write ?mode ?(lock_whole_range = false) t file ~data_by_stripe =
  t.op_counter <- t.op_counter + 1;
  let op = t.op_counter in
  overhead t;
  let stripes = List.length data_by_stripe in
  let mode =
    match mode with
    | Some m -> m
    | None ->
        Policy.select_write t.policy ~spans_resources:(stripes > 1)
          ~implicit_read:false
  in
  let page = t.config.Config.page in
  let lock_ranges_of (ranges : Ranges.t) =
    if lock_whole_range then Ranges.single (Interval.to_eof ~lo:0)
    else
      match (ranges :> Interval.t list) with
      | [ range ] -> Ranges.single (Interval.align ~page range)
      | ranges when t.policy.Policy.datatype_requests ->
          (* Alignment can make neighbouring ranges touch: normalize. *)
          Ranges.of_list (List.map (Interval.align ~page) ranges)
      | _ -> Ranges.single (Interval.align ~page (Ranges.hull ranges))
  in
  match data_by_stripe with
  | [ (stripe, ranges) ] ->
      (* One stripe, the common case: no handle list. *)
      let rid = Layout.rid ~fid:file.f_fid ~stripe in
      let h =
        Lock_client.acquire t.locks ~rid ~mode ~ranges:(lock_ranges_of ranges)
      in
      write_ranges t ~rid ~sn:(Lock_client.sn h) ~op ranges;
      Lock_client.release t.locks h
  | _ ->
      let held =
        acquire_stripes t file ~mode
          ~by_stripe:
            (List.map
               (fun (s, ranges) -> (s, lock_ranges_of ranges))
               data_by_stripe)
      in
      (* [data_by_stripe] is in stripe order, so [held] is in its order. *)
      List.iter2
        (fun (_, ranges) (rid, h) ->
          write_ranges t ~rid ~sn:(Lock_client.sn h) ~op ranges)
        data_by_stripe held;
      List.iter (fun (_, h) -> Lock_client.release t.locks h) held

let write ?mode ?lock_whole_range t file ~off ~len =
  if len <= 0 then invalid_arg "Client.write: len must be positive";
  io_span t "client.write"
    (fun () -> [ ("off", Obs.Json.Int off); ("len", Obs.Json.Int len) ])
    (fun () ->
      do_write ?mode ?lock_whole_range t file
        ~data_by_stripe:
          (Layout.chunks file.f_layout [ Interval.of_len ~lo:off ~len ]))

let write_multi ?mode t file ~ranges =
  if ranges = [] then invalid_arg "Client.write_multi: no ranges";
  do_write ?mode t file ~data_by_stripe:(Layout.chunks file.f_layout ranges)

let fetch_stripe t file ~stripe ~range =
  let rid = Layout.rid ~fid:file.f_fid ~stripe in
  (* Clean data cached under the (still cached) lock serves repeat reads
     without touching the data server. *)
  let remote =
    if Client_cache.clean_covers t.cache ~rid ~range then
      Client_cache.clean_view t.cache ~rid ~range
    else begin
      let segs =
        match
          io_call t rid
            ~resp_bytes:(Interval.length range)
            (Data_server.Read { rid; range })
        with
        | Data_server.Data segs -> segs
        | Data_server.Done as r ->
            Protocol_error.fail
              ~endpoint:(Rpc.name (t.io_route rid))
              ~request:
                (Printf.sprintf "Read rid=%d [%d,%d)" rid range.Interval.lo
                   range.Interval.hi)
              ~got:(Data_server.io_resp_to_string r)
      in
      Client_cache.store_clean t.cache ~rid segs;
      segs
    end
  in
  (* Overlay this client's dirty data (read-your-writes under a cached
     PW lock).  The overlay is SN-ordered like every other data merge:
     a dirty extent wins only where its SN is at least the server
     copy's (equal SN = same lock, and the cache holds its freshest
     bytes). *)
  let dirty = Client_cache.local_view t.cache ~rid ~range in
  let base =
    List.fold_left
      (fun m (iv, tag) ->
        match tag with Some tg -> Content.write m iv tg | None -> m)
      Content.empty remote
  in
  let overlay =
    List.fold_left
      (fun m (iv, tag) -> Content.overlay_cached m iv tag)
      base dirty
  in
  List.map (fun (iv, tag) -> (stripe, iv, tag)) (Content.read overlay range)

let read t file ~off ~len =
  if len <= 0 then invalid_arg "Client.read: len must be positive";
  io_span t "client.read"
    (fun () -> [ ("off", Obs.Json.Int off); ("len", Obs.Json.Int len) ])
    (fun () ->
    t.op_counter <- t.op_counter + 1;
    overhead t;
    let by_stripe =
      Layout.chunks file.f_layout [ Interval.of_len ~lo:off ~len ]
    in
    let lock_by_stripe =
      List.map
        (fun (s, ranges) ->
          ( s,
            Ranges.single
              (Interval.align ~page:t.config.Config.page (Ranges.hull ranges))
          ))
        by_stripe
    in
    let held = acquire_stripes t file ~mode:Mode.PR ~by_stripe:lock_by_stripe in
    let segs =
      List.concat_map
        (fun (stripe, (ranges : Ranges.t)) ->
          List.concat_map
            (fun range ->
              t.r_bytes <- t.r_bytes + Interval.length range;
              fetch_stripe t file ~stripe ~range)
            (ranges :> Interval.t list))
        by_stripe
    in
    List.iter (fun (_, h) -> Lock_client.release t.locks h) held;
    segs)

let read_checksum t file ~off ~len =
  (* Canonicalise first: fragment boundaries depend on cache state, so
     adjacent segments with identical provenance must merge before
     hashing or two coherent views could checksum differently. *)
  let tag_equal a b =
    match (a, b) with
    | None, None -> true
    | Some (x : Content.tag), Some y ->
        x.Content.writer = y.Content.writer && x.Content.op = y.Content.op
        && x.Content.sn = y.Content.sn
    | None, Some _ | Some _, None -> false
  in
  let segs = read t file ~off ~len in
  let canonical =
    List.fold_left
      (fun acc (stripe, (iv : Interval.t), tag) ->
        match acc with
        | (s', (p : Interval.t), t') :: rest
          when s' = stripe && p.hi = iv.lo && tag_equal t' tag ->
            (s', Interval.v ~lo:p.lo ~hi:iv.hi, t') :: rest
        | _ -> (stripe, iv, tag) :: acc)
      [] segs
    |> List.rev
  in
  List.fold_left
    (fun acc (stripe, (iv : Interval.t), tag) ->
      let mix acc x = (acc * 1_000_003) lxor x in
      let acc = mix (mix (mix acc stripe) iv.lo) iv.hi in
      match tag with
      | None -> mix acc (-1)
      | Some tg -> mix (mix (mix acc tg.Content.writer) tg.Content.op) tg.Content.sn)
    0x2545F491 canonical

let whole_file_locks t file =
  let stripes = List.init file.f_layout.Layout.stripe_count (fun s -> s) in
  acquire_stripes t file ~mode:Mode.PW
    ~by_stripe:
      (List.map (fun s -> (s, Ranges.single (Interval.to_eof ~lo:0))) stripes)

let stat_size t file =
  match Rpc.call t.meta ~src:t.node (Meta_server.Stat { fid = file.f_fid }) with
  | Meta_server.Attrs a -> a.size
  | Meta_server.Enoent -> raise Not_found
  | Meta_server.Ok as r ->
      Protocol_error.fail ~endpoint:(Rpc.name t.meta)
        ~request:(Printf.sprintf "Stat fid=%d" file.f_fid)
        ~got:(Meta_server.resp_to_string r)

let append t file ~len =
  if len <= 0 then invalid_arg "Client.append: len must be positive";
  io_span t "client.append"
    (fun () -> [ ("len", Obs.Json.Int len) ])
    (fun () ->
    let held = whole_file_locks t file in
    let size = stat_size t file in
    let by_stripe =
      Layout.chunks file.f_layout [ Interval.of_len ~lo:size ~len ]
    in
    t.op_counter <- t.op_counter + 1;
    let op = t.op_counter in
    overhead t;
    List.iter
      (fun (stripe, ranges) ->
        let rid = Layout.rid ~fid:file.f_fid ~stripe in
        (* [held] covers every stripe of the file. *)
        write_ranges t ~rid ~sn:(Lock_client.sn (List.assoc rid held)) ~op
          ranges)
      by_stripe;
    (match
       Rpc.call t.meta ~src:t.node
         (Meta_server.Update_size { fid = file.f_fid; size = size + len })
     with
    | Meta_server.Ok -> ()
    | (Meta_server.Attrs _ | Meta_server.Enoent) as r ->
        Protocol_error.fail ~endpoint:(Rpc.name t.meta)
          ~request:
            (Printf.sprintf "Update_size fid=%d size=%d" file.f_fid
               (size + len))
          ~got:(Meta_server.resp_to_string r));
    List.iter (fun (_, h) -> Lock_client.release t.locks h) held;
    size)

(* Object-space boundary of a stripe for a file truncated to [size]. *)
let stripe_keep_below layout ~stripe ~size =
  let s = layout.Layout.stripe_size and c = layout.Layout.stripe_count in
  let full_rows = size / (s * c) in
  let rem = size mod (s * c) in
  let chunk_idx = rem / s and within = rem mod s in
  (full_rows * s)
  + (if stripe < chunk_idx then s else if stripe = chunk_idx then within else 0)

let truncate t file ~size =
  if size < 0 then invalid_arg "Client.truncate: negative size";
  io_span t "client.truncate"
    (fun () -> [ ("size", Obs.Json.Int size) ])
    (fun () ->
    let held = whole_file_locks t file in
    (match
       Rpc.call t.meta ~src:t.node
         (Meta_server.Set_size { fid = file.f_fid; size })
     with
    | Meta_server.Ok -> ()
    | (Meta_server.Attrs _ | Meta_server.Enoent) as r ->
        Protocol_error.fail ~endpoint:(Rpc.name t.meta)
          ~request:(Printf.sprintf "Set_size fid=%d size=%d" file.f_fid size)
          ~got:(Meta_server.resp_to_string r));
    for stripe = 0 to file.f_layout.Layout.stripe_count - 1 do
      let rid = Layout.rid ~fid:file.f_fid ~stripe in
      let keep_below = stripe_keep_below file.f_layout ~stripe ~size in
      Client_cache.drop_clean t.cache ~rid
        ~range:(Interval.to_eof ~lo:keep_below);
      match
        io_call t rid (Data_server.Truncate { rid; keep_below })
      with
      | Data_server.Done -> ()
      | Data_server.Data _ as r ->
          Protocol_error.fail
            ~endpoint:(Rpc.name (t.io_route rid))
            ~request:(Printf.sprintf "Truncate rid=%d keep_below=%d" rid keep_below)
            ~got:(Data_server.io_resp_to_string r)
    done;
    List.iter (fun (_, h) -> Lock_client.release t.locks h) held)

let fsync t = Client_cache.flush_all t.cache

let fsync_file t file =
  for stripe = 0 to file.f_layout.Layout.stripe_count - 1 do
    Client_cache.flush t.cache
      ~rid:(Layout.rid ~fid:file.f_fid ~stripe)
      ~ranges:[ Interval.to_eof ~lo:0 ]
  done

let crash t = Client_cache.lose_all_dirty t.cache
let lock_client t = t.locks
let cache t = t.cache
let node t = t.node
let bytes_written t = t.w_bytes
let bytes_read t = t.r_bytes
let ops t = t.op_counter
