open Ccpfs_util
open Dessim
open Netsim

type hooks = {
  flush : rid:Types.resource_id -> ranges:Interval.t list -> unit;
  has_dirty : rid:Types.resource_id -> ranges:Interval.t list -> bool;
  invalidate : rid:Types.resource_id -> ranges:Interval.t list -> unit;
}

type cached_lock = {
  lock_id : int;
  rid : Types.resource_id;
  mutable cmode : Mode.t;
  ranges : Interval.t list;
  csn : int;
  mutable state : Lcm.lock_state;
  mutable holders : int;
  mutable cancel_started : bool;
  idle : Condition.t;
  mutable merged_into : cached_lock option;
  stamp : int;
      (* per-client install order: among the usable locks covering a
         request, the lookup picks the highest (the newest install) *)
}

type handle = cached_lock

type recovery_query = {
  rq_server : string;
  rq_epoch : int;
  rq_endpoints : string list;
}

type recovery_lock = {
  r_rid : Types.resource_id;
  r_lock_id : int;
  r_mode : Mode.t;
  r_ranges : Interval.t list;
  r_sn : int;
  r_state : Lcm.lock_state;
}

(* Pending control messages for one lock server, awaiting a ride on that
   node's data traffic (DESIGN.md §13).  [pb_msgs] is kept reversed;
   takers restore send order. *)
type pb_queue = {
  pb_srv : Lock_server.t;
  mutable pb_msgs : Types.ctl_msg list;
  mutable pb_armed : bool;
}

type t = {
  eng : Engine.t;
  params : Params.t;
  node : Node.t;
  id : Types.client_id;
  route : Types.resource_id -> Lock_server.t;
  hooks : hooks;
  locks : (Types.resource_id * int, cached_lock) Hashtbl.t;
  by_rid : (Types.resource_id, cached_lock Interval_index.t ref) Hashtbl.t;
      (* the cached locks of each resource, keyed by (range hull,
         stamp) *)
  mutable next_stamp : int;
  registered : (string, unit) Hashtbl.t;
  pending_revokes : (Types.resource_id * int, unit) Hashtbl.t;
  pb : (string, pb_queue) Hashtbl.t; (* server node name -> pending ctl *)
  mutable piggyback : bool; (* park ctl messages for flush RPCs *)
  mutable revoke_ep : (Types.server_msg, unit) Rpc.endpoint option;
  mutable recover_ep : (recovery_query, recovery_lock list) Rpc.endpoint option;
  view : Rpc.View.t;
  mutable rel : Rpc.reliability option;
  mutable map_refresh : (min_epoch:int -> unit) option;
      (* installed by the cluster: fetch a shard-map snapshot of at least
         [min_epoch] and install it into the cache [route] consults *)
  mutable locking : float;
  mutable n_acquires : int;
  mutable n_hits : int;
  mutable n_cancels : int;
  mutable n_stale : int; (* Stale_owner bounces seen *)
}

let rid_locks t rid =
  match Hashtbl.find_opt t.by_rid rid with
  | Some r -> r
  | None ->
      let r = ref Interval_index.empty in
      Hashtbl.add t.by_rid rid r;
      r

(* Idempotent: removing a lock that is no longer cached is a no-op. *)
let remove_lock t (l : cached_lock) =
  match Hashtbl.find_opt t.locks (l.rid, l.lock_id) with
  | Some l' when l' == l ->
      Hashtbl.remove t.locks (l.rid, l.lock_id);
      let r = rid_locks t l.rid in
      r := Interval_index.remove !r (Types.ranges_hull l.ranges) ~id:l.stamp
  | Some _ | None -> ()

let server t rid =
  let srv = t.route rid in
  let key = Node.name (Lock_server.node srv) in
  if not (Hashtbl.mem t.registered key) then begin
    Hashtbl.add t.registered key ();
    Lock_server.register_client srv t.id (Option.get t.revoke_ep)
  end;
  srv

(* Piggybacking (DESIGN.md §13).  Control messages are parked here for
   the rest of the current event cascade, hoping a flush RPC towards the
   same server picks them up ([take_piggyback], wired into the data
   cache); a zero-delay timer drains leftovers as plain notifies.
   Per-server order is preserved — the queue is FIFO and a taker always
   takes everything. *)
let pb_queue t srv =
  let key = Node.name (Lock_server.node srv) in
  match Hashtbl.find_opt t.pb key with
  | Some q -> q
  | None ->
      let q = { pb_srv = srv; pb_msgs = []; pb_armed = false } in
      Hashtbl.add t.pb key q;
      q

let pb_take q =
  let msgs = List.rev q.pb_msgs in
  q.pb_msgs <- [];
  msgs

let pb_drain t q =
  List.iter
    (fun msg -> Rpc.notify (Lock_server.ctl_endpoint q.pb_srv) ~src:t.node msg)
    (pb_take q)

let pb_arm t q =
  if not q.pb_armed then begin
    q.pb_armed <- true;
    Engine.schedule t.eng ~delay:0. (fun () ->
        q.pb_armed <- false;
        pb_drain t q)
  end

(* Control messages (release / downgrade / revoke-ack) are fire-and-
   forget.  Under the HA regime they must also be *reliable*: a Release
   dropped during a server outage — after the recovery coordinator has
   gathered this client's locks — would leave the reinstalled grant held
   forever.  The server-side handlers no-op on unknown lock ids, so a
   retransmission landing after recovery is always safe regardless of
   whether the lock was gathered. *)
let send_ctl t srv msg =
  let ep = Lock_server.ctl_endpoint srv in
  match t.rel with
  | Some rel -> Rpc.send_reliable ep ~src:t.node ~reliability:rel ~view:t.view msg
  | None when not t.piggyback -> Rpc.notify ep ~src:t.node msg
  | None ->
      let q = pb_queue t srv in
      q.pb_msgs <- msg :: q.pb_msgs;
      pb_arm t q

(* The cancel path (§III-A2, §III-D2).  Runs as its own process: waits
   out ongoing holders, downgrades, flushes, releases. *)
let start_cancel t (l : cached_lock) =
  if not l.cancel_started then begin
    l.cancel_started <- true;
    t.n_cancels <- t.n_cancels + 1;
    let lock = string_of_int l.rid ^ "#" ^ string_of_int l.lock_id in
    Engine.spawn t.eng
      ~name:(String.concat "" [ "c"; string_of_int t.id; ".cancel.r"; lock ])
      (fun () ->
        Condition.wait_until ~ctx:("lock-idle:r" ^ lock)
          l.idle
          (fun () -> l.holders = 0);
        let srv = server t l.rid in
        let convert = (Lock_server.policy srv).Policy.auto_convert in
        let release_msg = Types.Release { rid = l.rid; lock_id = l.lock_id } in
        let release ~parked () =
          (* The lock protected any clean data cached under it; once it is
             gone the client may no longer serve reads from that data. *)
          t.hooks.invalidate ~rid:l.rid ~ranges:l.ranges;
          (if parked then begin
             (* The release was parked for the flush RPC.  If the flush
                carried it, it is gone from the queue (applied at the
                server after the blocks); if the cache had nothing dirty
                no RPC went out, so reclaim it and send it plainly.
                Everything here runs in the flush's returning event, so
                no drain timer can race the reclaim. *)
             let q = pb_queue t srv in
             if List.memq release_msg q.pb_msgs then begin
               q.pb_msgs <-
                 List.filter (fun m -> m != release_msg) q.pb_msgs;
               Rpc.notify (Lock_server.ctl_endpoint srv) ~src:t.node
                 release_msg
             end
           end
           else send_ctl t srv release_msg);
          remove_lock t l
        in
        (* Flush-then-release, the §III-B rule: with piggybacking on, the
           release is parked *before* the flush so the Write_flush built
           in this same event carries it — the data server applies it
           right after the blocks are durable, and the trailing control
           courier disappears (DESIGN.md §13). *)
        let flush_release () =
          let parked =
            match (t.rel, t.piggyback) with
            | None, true ->
                let q = pb_queue t srv in
                q.pb_msgs <- release_msg :: q.pb_msgs;
                true
            | _ -> false
          in
          t.hooks.flush ~rid:l.rid ~ranges:l.ranges;
          release ~parked ()
        in
        match l.cmode with
        | Mode.PR -> release ~parked:false ()
        | Mode.NBW -> flush_release ()
        | Mode.BW ->
            if convert then begin
              (* Downgrade before flushing so conflicting write requests
                 can be early-granted during the flush (Fig. 12). *)
              l.cmode <- Mode.NBW;
              send_ctl t srv
                (Types.Downgrade
                   { rid = l.rid; lock_id = l.lock_id; mode = Mode.NBW })
            end;
            flush_release ()
        | Mode.PW ->
            if convert && t.hooks.has_dirty ~rid:l.rid ~ranges:l.ranges then begin
              l.cmode <- Mode.NBW;
              (* PW -> NBW loses the read capability immediately. *)
              t.hooks.invalidate ~rid:l.rid ~ranges:l.ranges;
              send_ctl t srv
                (Types.Downgrade
                   { rid = l.rid; lock_id = l.lock_id; mode = Mode.NBW });
              flush_release ()
            end
            else if convert then begin
              (* Read-only use: nothing to flush, shrink to PR so pending
                 readers are granted, then release. *)
              l.cmode <- Mode.PR;
              send_ctl t srv
                (Types.Downgrade
                   { rid = l.rid; lock_id = l.lock_id; mode = Mode.PR });
              release ~parked:false ()
            end
            else flush_release ())
  end

let handle_revoke t (msg : Types.server_msg) =
  match msg with
  | Types.Revoke { rid; lock_id } -> (
      match Hashtbl.find_opt t.locks (rid, lock_id) with
      | Some l ->
          if l.state = Lcm.Granted then begin
            l.state <- Lcm.Canceling;
            send_ctl t (server t rid) (Types.Revoke_ack { rid; lock_id });
            start_cancel t l
          end
      | None ->
          (* Revocation raced ahead of the grant install: remember it and
             apply when the grant arrives. *)
          Hashtbl.replace t.pending_revokes (rid, lock_id) ())

let locks_for_recovery t ~owned =
  (* sorted (rid, lock_id) traversal: the recovery report order feeds the
     reacquire stream, so it must not depend on table internals *)
  Det_tbl.fold_sorted
    ~cmp:(fun (r1, l1) (r2, l2) ->
      match Int.compare r1 r2 with 0 -> Int.compare l1 l2 | c -> c)
    (fun (rid, _) (l : cached_lock) acc ->
      if owned rid then
        {
          r_rid = rid;
          r_lock_id = l.lock_id;
          r_mode = l.cmode;
          r_ranges = l.ranges;
          r_sn = l.csn;
          r_state = l.state;
        }
        :: acc
      else acc)
    t.locks []
  |> List.rev

(* The recovery coordinator's gather RPC (§IV-C2, online).  Bumping the
   view first is the fencing half: any grant from the crashed epoch still
   in flight towards this client arrives with an older epoch stamp and is
   discarded by its retry loop — so no lock unknown to the recovered
   server can be installed after we reported our cached set. *)
let handle_recovery_query t (q : recovery_query) =
  List.iter (fun ep -> Rpc.View.observe t.view ep q.rq_epoch) q.rq_endpoints;
  let owned rid =
    Node.name (Lock_server.node (t.route rid)) = q.rq_server
  in
  locks_for_recovery t ~owned

let create eng params ~node ~client_id ~route ~hooks =
  let t =
    {
      eng; params; node; id = client_id; route; hooks;
      locks = Hashtbl.create 16;
      by_rid = Hashtbl.create 16;
      next_stamp = 0;
      registered = Hashtbl.create 8;
      pending_revokes = Hashtbl.create 8;
      pb = Hashtbl.create 8;
      piggyback = false;
      revoke_ep = None;
      recover_ep = None;
      view = Rpc.View.create ~salt:client_id ();
      rel = None;
      map_refresh = None;
      locking = 0.;
      n_acquires = 0;
      n_hits = 0;
      n_cancels = 0;
      n_stale = 0;
    }
  in
  t.revoke_ep <-
    Some
      (Rpc.endpoint eng params ~node ~name:(Printf.sprintf "c%d.revoke" client_id)
         ~handler:(fun msg ~reply ->
           handle_revoke t msg;
           reply ()));
  t.recover_ep <-
    Some
      (Rpc.endpoint eng params ~node
         ~name:(Printf.sprintf "c%d.recover" client_id)
         ~handler:(fun q ~reply -> reply (handle_recovery_query t q)));
  t

let covers (l : cached_lock) ranges =
  List.for_all
    (fun iv -> List.exists (fun r -> Interval.contains r iv) l.ranges)
    ranges

(* The newest-installed usable lock covering [ranges].  A covering lock
   contains the first range, so its hull overlaps it: the index probe
   visits only those candidates and keeps the highest stamp among the
   usable ones. *)
let find_usable t ~rid ~mode ~ranges =
  match Hashtbl.find_opt t.by_rid rid with
  | None -> None
  | Some r ->
      let probe = match ranges with q :: _ -> q | [] -> Interval.to_eof ~lo:0 in
      Interval_index.fold_overlapping !r probe ~init:None
        ~f:(fun best _ _ (l : cached_lock) ->
          match best with
          | Some (b : cached_lock) when b.stamp > l.stamp -> best
          | _ ->
              if
                l.state = Lcm.Granted && (not l.cancel_started)
                && Mode.subsumes ~cached:l.cmode ~wanted:mode
                && covers l ranges
              then Some l
              else best)

let install_grant t (g : Types.grant) =
  (* Lock upgrading merged some of our own locks into this grant: retire
     them, transferring their in-flight holds to the new lock. *)
  let merged =
    List.filter_map (fun id -> Hashtbl.find_opt t.locks (g.rid, id)) g.replaces
  in
  List.iter (remove_lock t) merged;
  let inherited = List.fold_left (fun acc old -> acc + old.holders) 0 merged in
  let l =
    {
      lock_id = g.lock_id;
      rid = g.rid;
      cmode = g.mode;
      ranges = g.ranges;
      csn = g.sn;
      state = g.state;
      holders = 1 + inherited;
      cancel_started = false;
      idle = Condition.create t.eng;
      merged_into = None;
      stamp = t.next_stamp;
    }
  in
  t.next_stamp <- t.next_stamp + 1;
  List.iter (fun old -> old.merged_into <- Some l) merged;
  Option.iter (remove_lock t) (Hashtbl.find_opt t.locks (g.rid, g.lock_id));
  Hashtbl.replace t.locks (g.rid, g.lock_id) l;
  let r = rid_locks t g.rid in
  r := Interval_index.add !r (Types.ranges_hull l.ranges) ~id:l.stamp l;
  if Hashtbl.mem t.pending_revokes (g.rid, g.lock_id) then begin
    Hashtbl.remove t.pending_revokes (g.rid, g.lock_id);
    if l.state = Lcm.Granted then begin
      l.state <- Lcm.Canceling;
      send_ctl t (server t g.rid)
        (Types.Revoke_ack { rid = g.rid; lock_id = g.lock_id })
    end
  end;
  l

let acquire t ~rid ~mode ~ranges =
  t.n_acquires <- t.n_acquires + 1;
  match find_usable t ~rid ~mode ~ranges with
  | Some l ->
      t.n_hits <- t.n_hits + 1;
      l.holders <- l.holders + 1;
      l
  | None ->
      let t0 = Engine.now t.eng in
      let req = { Types.client = t.id; rid; mode; ranges } in
      (* The route is re-read on every attempt: a [Stale_owner] bounce
         refreshes the shard-map cache, so the retry goes to the current
         owner (DESIGN.md §15).  The attempt bound only guards against a
         broken map service — each bounce installs a strictly newer map,
         so a live cluster converges in one or two hops. *)
      let rec attempt tries =
        let srv = server t rid in
        (* Push parked control traffic for this server out ahead of the
           request (best effort: ctl and lock travel on separate
           endpoints, and the server tolerates either arrival order —
           unknown lock ids no-op, own-lock conflicts convert). *)
        (match Hashtbl.find_opt t.pb (Node.name (Lock_server.node srv)) with
        | Some q -> pb_drain t q
        | None -> ());
        let ep = Lock_server.lock_endpoint srv in
        let resp =
          match t.rel with
          | None -> Rpc.call ep ~src:t.node req
          | Some rel ->
              (* Fenced + retried: survives a server crash while the
                 request (or its grant) is in flight. *)
              Rpc.call_reliable ep ~src:t.node ~reliability:rel ~view:t.view
                req
        in
        match resp with
        | Types.Granted g -> g
        | Types.Stale_owner { epoch } ->
            t.n_stale <- t.n_stale + 1;
            (match t.map_refresh with
            | Some refresh -> refresh ~min_epoch:epoch
            | None ->
                failwith
                  (Printf.sprintf
                     "c%d: Stale_owner (epoch %d) for rid %d with no \
                      shard-map refresh hook"
                     t.id epoch rid));
            if tries <= 1 then
              failwith
                (Printf.sprintf
                   "c%d: rid %d still bouncing after map refresh to epoch \
                    >= %d"
                   t.id rid epoch)
            else attempt (tries - 1)
      in
      let grant = attempt 16 in
      t.locking <- t.locking +. (Engine.now t.eng -. t0);
      install_grant t grant

let rec resolve (l : cached_lock) =
  match l.merged_into with None -> l | Some l' -> resolve l'

let release t h =
  let l = resolve h in
  if l.holders <= 0 then invalid_arg "Lock_client.release: not held";
  l.holders <- l.holders - 1;
  if l.holders = 0 then begin
    Condition.broadcast l.idle;
    if l.state = Lcm.Canceling then start_cancel t l
  end

let with_lock t ~rid ~mode ~ranges f =
  let h = acquire t ~rid ~mode ~ranges in
  match f h with
  | v ->
      release t h;
      v
  | exception e ->
      release t h;
      raise e

let lock_id h = (resolve h).lock_id
let sn h = (resolve h).csn
let mode h = (resolve h).cmode
let granted_ranges h = (resolve h).ranges
let is_canceling h = (resolve h).state = Lcm.Canceling
let locking_seconds t = t.locking
let acquires t = t.n_acquires
let cache_hits t = t.n_hits
let cancels t = t.n_cancels
let cached_locks t = Hashtbl.length t.locks
let client_id t = t.id
let view t = t.view
let set_reliability t rel = t.rel <- Some rel
let set_map_refresh t f = t.map_refresh <- Some f
let stale_bounces t = t.n_stale

let set_piggyback t = t.piggyback <- true

let take_piggyback t ~rid =
  if not t.piggyback then []
  else
    match
      Hashtbl.find_opt t.pb (Node.name (Lock_server.node (t.route rid)))
    with
    | None -> []
    | Some q -> pb_take q
let retries t = Rpc.View.retries t.view
let recovery_endpoint t = Option.get t.recover_ep
