(* The pre-index lock server, kept verbatim as the reference model for
   the differential test in test_dlm.ml: per-resource state as plain
   lists ([granted : lock list], [waiting : waiter list]), every queue
   pass a full scan.  The production server replaced these with indexed
   structures (Dllist / Interval_index / hashtable) for O(1) hot paths;
   the two must stay observationally identical — same grants in the same
   order with the same SNs, same revokes, same queue depths.  Only the
   [submit]/[control] aliases at the bottom were added, and
   [granted_locks] lists the production server's [Types.lock] record so
   the differential compares the two lists directly.  The differential
   never crashes a server, so the model has no recovery entry points. *)

open Ccpfs_util
open Dessim
open Netsim
open Seqdlm

type stats = {
  mutable grants : int;
  mutable early_grants : int;
  mutable early_revocations : int;
  mutable revokes_sent : int;
  mutable upgrades : int;
  mutable downgrades : int;
  mutable releases : int;
  mutable expansions : int;
  mutable revocation_wait : float;
  mutable release_wait : float;
  mutable max_queue : int;
}

type lock = {
  id : int;
  client : Types.client_id;
  mutable mode : Mode.t;
  ranges : Ranges.t;
  hull : Interval.t;
  sn : int;
  mutable state : Lcm.lock_state;
  mutable revoke_sent : bool;
}

type waiter = {
  req : Types.request;
  reply : Types.grant -> unit;
  mutable eff_mode : Mode.t;
  enq_time : float;
  mutable acks_time : float option;
      (* when this waiter's conflict set first became all-CANCELING *)
  internal : bool; (* sync_resource pseudo-request: drop lock on grant *)
}

type rstate = {
  rid : Types.resource_id;
  mutable next_sn : int;
  mutable granted : lock list;
  mutable waiting : waiter list; (* FIFO, head first *)
  mutable total_grants : int;
      (* cumulative; drives DLM-Lustre's contention heuristic *)
}

type trace_event =
  | T_request of Types.request
  | T_grant of Types.grant * [ `Normal | `Early ]
  | T_revoke of { t_rid : Types.resource_id; t_lock_id : int;
                  t_client : Types.client_id }
  | T_ack of { t_rid : Types.resource_id; t_lock_id : int }
  | T_release of { t_rid : Types.resource_id; t_lock_id : int }
  | T_downgrade of { t_rid : Types.resource_id; t_lock_id : int;
                     t_mode : Mode.t }

type t = {
  eng : Engine.t;
  params : Params.t;
  node : Node.t;
  name : string;
  policy : Policy.t;
  resources : (Types.resource_id, rstate) Hashtbl.t;
  clients : (Types.client_id, (Types.server_msg, unit) Rpc.endpoint) Hashtbl.t;
  mutable next_lock_id : int;
  stats : stats;
  mutable lock_ep : (Types.request, Types.grant) Rpc.endpoint option;
  mutable ctl_ep : (Types.ctl_msg, unit) Rpc.endpoint option;
  mutable tracer : (float -> trace_event -> unit) option;
  mutable validator : (t -> unit) option;
  q_depth : Obs.Metrics.histogram; (* queue length at each enqueue *)
  mutable sn_reuse_every : int; (* injected sequencer fault: 0 = off *)
  mutable sn_issued : int;
}

(* Lock-lifecycle instants on the trace sink (enqueue -> grant -> revoke
   -> ack -> release), attributed to the courier process that triggered
   the transition.  Wait-time attribution is separate: see the complete
   events emitted by [grant_waiter]. *)
let obs_emit t sink ev =
  let ts = Engine.now t.eng in
  let tid = Engine.current_pid t.eng in
  let inst name args = Obs.Trace.instant sink ~ts ~tid ~cat:"lock" ~args name in
  let open Obs.Json in
  match ev with
  | T_request (r : Types.request) ->
      inst "lock.enqueue"
        [ ("rid", Int r.rid); ("client", Int r.client);
          ("mode", Str (Mode.to_string r.mode)) ]
  | T_grant (g, early) ->
      inst "lock.grant"
        [ ("rid", Int g.Types.rid); ("lock_id", Int g.Types.lock_id);
          ("client", Int g.Types.client);
          ("mode", Str (Mode.to_string g.Types.mode)); ("sn", Int g.Types.sn);
          ("early", Bool (early = `Early)) ]
  | T_revoke { t_rid; t_lock_id; t_client } ->
      inst "lock.revoke"
        [ ("rid", Int t_rid); ("lock_id", Int t_lock_id);
          ("client", Int t_client) ]
  | T_ack { t_rid; t_lock_id } ->
      inst "lock.ack" [ ("rid", Int t_rid); ("lock_id", Int t_lock_id) ]
  | T_release { t_rid; t_lock_id } ->
      inst "lock.release" [ ("rid", Int t_rid); ("lock_id", Int t_lock_id) ]
  | T_downgrade { t_rid; t_lock_id; t_mode } ->
      inst "lock.downgrade"
        [ ("rid", Int t_rid); ("lock_id", Int t_lock_id);
          ("mode", Str (Mode.to_string t_mode)) ]

let trace t ev =
  (match t.tracer with
  | Some f -> f (Engine.now t.eng) ev
  | None -> ());
  let sink = Engine.trace_sink t.eng in
  if Obs.Trace.enabled sink then obs_emit t sink ev

(* The sanitizer's post-transition hook: runs after every externally
   triggered state change (request, control message, sync), once the
   queue passes have settled. *)
let validate t =
  match t.validator with Some f -> f t | None -> ()

let fresh_stats () =
  {
    grants = 0; early_grants = 0; early_revocations = 0; revokes_sent = 0;
    upgrades = 0; downgrades = 0; releases = 0; expansions = 0;
    revocation_wait = 0.; release_wait = 0.; max_queue = 0;
  }

let rstate t rid =
  match Hashtbl.find_opt t.resources rid with
  | Some rs -> rs
  | None ->
      let rs = { rid; next_sn = 1; granted = []; waiting = []; total_grants = 0 } in
      Hashtbl.add t.resources rid rs;
      rs

let lock_conflicts_waiter ~eff_mode ~ranges (g : lock) =
  Ranges.overlaps ranges g.ranges
  && not (Lcm.compatible ~req:eff_mode ~granted:g.mode ~state:g.state)

(* Compute the (possibly expanded) ranges for a grant and whether any
   expansion happened.  Only singleton-range requests expand, only the
   end of the range grows (§II-A), and the expansion stops at the first
   conflicting granted lock or queued request above it. *)
let expanded_ranges t rs (w : waiter) ~others =
  match (t.policy.Policy.expansion, (w.req.ranges :> Interval.t list)) with
  | (Policy.Greedy | Policy.Capped _), [ iv ] ->
      let bound = ref Interval.eof in
      let consider lo = if lo >= iv.Interval.hi && lo < !bound then bound := lo in
      List.iter
        (fun (g : lock) ->
          if not (Lcm.compatible ~req:w.eff_mode ~granted:g.mode ~state:g.state)
          then
            List.iter
              (fun (r : Interval.t) -> consider r.lo)
              (g.ranges :> Interval.t list))
        rs.granted;
      List.iter
        (fun (w' : waiter) ->
          if
            Lcm.request_conflict w.eff_mode w'.eff_mode
            || Lcm.request_conflict w'.eff_mode w.eff_mode
          then consider (Ranges.hull w'.req.ranges).Interval.lo)
        others;
      (match t.policy.Policy.expansion with
      | Policy.Capped { max_expand; lock_threshold } ->
          (* Lustre's contention heuristic: once a resource has seen more
             than [lock_threshold] grants, stop expanding to EOF and cap
             growth at [max_expand] past the requested end. *)
          if rs.total_grants > lock_threshold then
            consider (iv.Interval.hi + max_expand)
      | Policy.Greedy | Policy.No_expansion -> ());
      let hi = !bound in
      if hi > iv.Interval.hi then
        (Ranges.single (Interval.v ~lo:iv.Interval.lo ~hi), true)
      else (w.req.ranges, false)
  | (Policy.No_expansion | Policy.Greedy | Policy.Capped _), _ ->
      (w.req.ranges, false)

let send_revoke t rs (g : lock) =
  g.revoke_sent <- true;
  t.stats.revokes_sent <- t.stats.revokes_sent + 1;
  trace t (T_revoke { t_rid = rs.rid; t_lock_id = g.id; t_client = g.client });
  match Hashtbl.find_opt t.clients g.client with
  | Some ep ->
      Rpc.notify ep ~src:t.node (Types.Revoke { rid = rs.rid; lock_id = g.id })
  | None ->
      invalid_arg
        (Printf.sprintf "%s: revoke for unregistered client %d" t.name g.client)

let grant_waiter t rs (w : waiter) ~own ~early =
  (* Merge away the holder's own conflicting locks (lock upgrading). *)
  rs.granted <-
    List.filter (fun g -> not (List.exists (fun o -> o.id = g.id) own)) rs.granted;
  rs.total_grants <- rs.total_grants + 1;
  let others = rs.waiting in
  let ranges, expanded = expanded_ranges t rs w ~others in
  let ranges =
    Ranges.of_list
      (List.concat_map (fun o -> (o.ranges :> Interval.t list)) own
      @ (ranges :> Interval.t list))
  in
  let mode = w.eff_mode in
  let sn =
    if not (Mode.is_write mode) then rs.next_sn
    else begin
      t.sn_issued <- t.sn_issued + 1;
      if
        t.sn_reuse_every > 0
        && t.sn_issued mod t.sn_reuse_every = 0
        && rs.next_sn > 1
      then (* injected sequencer fault: the previous SN is reissued *)
        rs.next_sn - 1
      else begin
        let sn = rs.next_sn in
        rs.next_sn <- rs.next_sn + 1;
        sn
      end
    end
  in
  let conflicts_queued =
    List.exists
      (fun (w' : waiter) ->
        Ranges.overlaps w'.req.ranges ranges
        && (Lcm.request_conflict w'.eff_mode mode
           || Lcm.request_conflict mode w'.eff_mode))
      others
  in
  let early_revoked =
    t.policy.Policy.early_revocation && (not expanded) && conflicts_queued
    && not w.internal
  in
  let state = if early_revoked then Lcm.Canceling else Lcm.Granted in
  t.next_lock_id <- t.next_lock_id + 1;
  let lock =
    {
      id = t.next_lock_id;
      client = w.req.client;
      mode;
      ranges;
      hull = Ranges.hull ranges;
      sn;
      state;
      revoke_sent = early_revoked;
    }
  in
  rs.granted <- lock :: rs.granted;
  let s = t.stats in
  s.grants <- s.grants + 1;
  if expanded then s.expansions <- s.expansions + 1;
  if early_revoked then s.early_revocations <- s.early_revocations + 1;
  if early then s.early_grants <- s.early_grants + 1;
  if not (Mode.equal mode w.req.mode) then s.upgrades <- s.upgrades + 1;
  let now = Engine.now t.eng in
  (match w.acks_time with
  | Some ta ->
      s.revocation_wait <- s.revocation_wait +. (ta -. w.enq_time);
      s.release_wait <- s.release_wait +. (now -. ta)
  | None -> s.revocation_wait <- s.revocation_wait +. (now -. w.enq_time));
  (* Fig. 17 wait attribution as trace spans, mirroring the stats update
     above term for term: ① [lock.wait.revocation] runs from enqueue
     until the conflict set is all-CANCELING, ② [lock.wait.release] from
     there to the grant — so summing span durations in a trace file
     reproduces the printed breakdown exactly. *)
  let sink = Engine.trace_sink t.eng in
  if Obs.Trace.enabled sink then begin
    let wtid = 900_000 + w.req.client in
    let args =
      [ ("rid", Obs.Json.Int rs.rid); ("client", Obs.Json.Int w.req.client) ]
    in
    match w.acks_time with
    | Some ta ->
        Obs.Trace.complete sink ~ts:w.enq_time ~dur:(ta -. w.enq_time)
          ~tid:wtid ~cat:"lock" ~args "lock.wait.revocation";
        Obs.Trace.complete sink ~ts:ta ~dur:(now -. ta) ~tid:wtid ~cat:"lock"
          ~args "lock.wait.release"
    | None ->
        Obs.Trace.complete sink ~ts:w.enq_time ~dur:(now -. w.enq_time)
          ~tid:wtid ~cat:"lock" ~args "lock.wait.revocation"
  end;
  let g =
    {
      Types.lock_id = lock.id;
      rid = rs.rid;
      client = w.req.client;
      mode;
      ranges;
      sn;
      state;
      replaces = List.map (fun o -> o.id) own;
    }
  in
  trace t (T_grant (g, if early then `Early else `Normal));
  w.reply g;
  lock

(* One scheduling pass over a resource's FIFO queue.  Returns true if any
   waiter was granted (a grant can unblock early grants further down, so
   the caller loops). *)
let pass t rs =
  let progress = ref false in
  let blocked : (Mode.t * Ranges.t) list ref = ref [] in
  let blocked_by_earlier mode ranges =
    List.exists
      (fun (m, rgs) ->
        Ranges.overlaps rgs ranges
        && (Lcm.request_conflict mode m || Lcm.request_conflict m mode))
      !blocked
  in
  (* Iterate a snapshot; granted waiters are removed from rs.waiting
     immediately so later decisions in the same pass see a fresh queue.
     A reply hook may re-enter [process] (internal sync requests), so a
     snapshot entry may already be gone — skip those. *)
  List.iter
    (fun (w : waiter) ->
      if not (List.memq w rs.waiting) then ()
      else
      (* Same-client GRANTED conflicts are merged by upgrading when
         conversion is on (and no revocation is already in flight). *)
      let own =
        if t.policy.Policy.auto_convert then
          List.filter
            (fun (g : lock) ->
              g.client = w.req.client && g.state = Lcm.Granted
              && (not g.revoke_sent)
              && lock_conflicts_waiter ~eff_mode:w.eff_mode ~ranges:w.req.ranges
                   g)
            rs.granted
        else []
      in
      let eff =
        List.fold_left (fun m (g : lock) -> Mode.join m g.mode) w.eff_mode own
      in
      w.eff_mode <- eff;
      (* Upgrading widens the grant to cover the merged locks' ranges, so
         conflict checks must run on the union: a PR lock expanded to EOF
         that upgrades to PW now conflicts where the PR did not. *)
      let union_ranges =
        Ranges.of_list
          ((w.req.ranges :> Interval.t list)
          @ List.concat_map
              (fun (g : lock) -> (g.ranges :> Interval.t list))
              own)
      in
      if blocked_by_earlier eff union_ranges then
        blocked := (eff, union_ranges) :: !blocked
      else begin
        let conflicts =
          List.filter
            (fun (g : lock) ->
              (not (List.exists (fun o -> o.id = g.id) own))
              && lock_conflicts_waiter ~eff_mode:eff ~ranges:union_ranges g)
            rs.granted
        in
        if conflicts = [] then begin
          let early =
            List.exists
              (fun (g : lock) ->
                g.state = Lcm.Canceling
                && Lcm.request_conflict eff g.mode
                && Ranges.overlaps w.req.ranges g.ranges)
              rs.granted
          in
          rs.waiting <- List.filter (fun w' -> w' != w) rs.waiting;
          ignore (grant_waiter t rs w ~own ~early);
          progress := true
        end
        else begin
          List.iter
            (fun (g : lock) ->
              if g.state = Lcm.Granted && not g.revoke_sent then
                send_revoke t rs g)
            conflicts;
          if
            w.acks_time = None
            && List.for_all (fun (g : lock) -> g.state = Lcm.Canceling) conflicts
          then w.acks_time <- Some (Engine.now t.eng);
          blocked := (eff, union_ranges) :: !blocked
        end
      end)
    rs.waiting;
  !progress

let rec process t rs =
  if pass t rs && rs.waiting <> [] then process t rs

let find_lock rs lock_id =
  List.find_opt (fun (g : lock) -> g.id = lock_id) rs.granted

let handle_request t (req : Types.request) ~reply =
  trace t (T_request req);
  let rs = rstate t req.rid in
  let w =
    {
      req;
      reply;
      eff_mode = req.mode;
      enq_time = Engine.now t.eng;
      acks_time = None;
      internal = false;
    }
  in
  rs.waiting <- rs.waiting @ [ w ];
  let q = List.length rs.waiting in
  if q > t.stats.max_queue then t.stats.max_queue <- q;
  Obs.Metrics.observe t.q_depth (float_of_int q);
  process t rs;
  validate t

let handle_ctl t (msg : Types.ctl_msg) ~reply =
  (match msg with
  | Types.Revoke_ack { rid; lock_id } -> (
      trace t (T_ack { t_rid = rid; t_lock_id = lock_id });
      let rs = rstate t rid in
      match find_lock rs lock_id with
      | Some g when g.state = Lcm.Granted ->
          g.state <- Lcm.Canceling;
          process t rs
      | Some _ | None -> ())
  | Types.Downgrade { rid; lock_id; mode } -> (
      trace t (T_downgrade { t_rid = rid; t_lock_id = lock_id; t_mode = mode });
      let rs = rstate t rid in
      match find_lock rs lock_id with
      | Some g ->
          g.mode <- mode;
          t.stats.downgrades <- t.stats.downgrades + 1;
          process t rs
      | None -> ())
  | Types.Release { rid; lock_id } ->
      trace t (T_release { t_rid = rid; t_lock_id = lock_id });
      let rs = rstate t rid in
      if List.exists (fun (g : lock) -> g.id = lock_id) rs.granted then begin
        rs.granted <- List.filter (fun (g : lock) -> g.id <> lock_id) rs.granted;
        t.stats.releases <- t.stats.releases + 1;
        process t rs
      end);
  validate t;
  reply ()

let create eng params ~node ~name ~policy =
  let t =
    {
      eng; params; node; name; policy;
      resources = Hashtbl.create 64;
      clients = Hashtbl.create 64;
      next_lock_id = 0;
      stats = fresh_stats ();
      lock_ep = None;
      ctl_ep = None;
      tracer = None;
      validator = None;
      q_depth =
        Obs.Metrics.histogram (Engine.metrics eng)
          (Printf.sprintf "dlm.%s.queue_depth" name);
      sn_reuse_every = 0;
      sn_issued = 0;
    }
  in
  t.lock_ep <-
    Some
      (Rpc.endpoint eng params ~node ~name:(name ^ ".lock")
         ~handler:(fun req ~reply -> handle_request t req ~reply));
  t.ctl_ep <-
    Some
      (Rpc.endpoint eng params ~node ~name:(name ^ ".ctl")
         ~handler:(fun msg ~reply -> handle_ctl t msg ~reply));
  t

let lock_endpoint t = Option.get t.lock_ep
let ctl_endpoint t = Option.get t.ctl_ep
let register_client t cid ep = Hashtbl.replace t.clients cid ep

let min_unreleased_write_sn t rid iv =
  match Hashtbl.find_opt t.resources rid with
  | None -> None
  | Some rs ->
      List.fold_left
        (fun acc (g : lock) ->
          if
            Mode.is_write g.mode && Ranges.overlaps (Ranges.single iv) g.ranges
          then
            match acc with
            | None -> Some g.sn
            | Some m -> Some (min m g.sn)
          else acc)
        None rs.granted

let sync_resource t rid ~on_behalf ~reply =
  let rs = rstate t rid in
  let req =
    {
      Types.client = on_behalf;
      rid;
      mode = Mode.PR;
      ranges = Ranges.single (Interval.to_eof ~lo:0);
    }
  in
  let w_reply (g : Types.grant) =
    (* The pseudo-lock served its purpose the instant it is grantable:
       every conflicting write lock has been released.  Drop it. *)
    rs.granted <- List.filter (fun (l : lock) -> l.id <> g.lock_id) rs.granted;
    process t rs;
    reply ()
  in
  let w =
    {
      req;
      reply = w_reply;
      eff_mode = Mode.PR;
      enq_time = Engine.now t.eng;
      acks_time = None;
      internal = true;
    }
  in
  rs.waiting <- rs.waiting @ [ w ];
  process t rs;
  validate t

let inject_sn_reuse t ~every =
  if every <= 0 then invalid_arg (t.name ^ ": inject_sn_reuse: every <= 0");
  t.sn_reuse_every <- every

let granted_locks t rid =
  match Hashtbl.find_opt t.resources rid with
  | None -> []
  | Some rs ->
      rs.granted
      |> List.map (fun (g : lock) : Types.lock ->
             { rid; lock_id = g.id; client = g.client; mode = g.mode;
               ranges = g.ranges; sn = g.sn; state = g.state })
      |> List.sort (fun (a : Types.lock) b -> Int.compare a.lock_id b.lock_id)

type waiter_view = {
  q_client : Types.client_id;
  q_mode : Mode.t;
  q_eff_mode : Mode.t;
  q_ranges : Ranges.t;
  q_enq_time : float;
}

let waiting_view t rid =
  match Hashtbl.find_opt t.resources rid with
  | None -> []
  | Some rs ->
      List.map
        (fun (w : waiter) ->
          {
            q_client = w.req.client;
            q_mode = w.req.mode;
            q_eff_mode = w.eff_mode;
            q_ranges = w.req.ranges;
            q_enq_time = w.enq_time;
          })
        rs.waiting

let resource_ids t =
  Hashtbl.fold (fun rid _ acc -> rid :: acc) t.resources []
  |> List.sort Int.compare

let queue_length t rid =
  match Hashtbl.find_opt t.resources rid with
  | None -> 0
  | Some rs -> List.length rs.waiting

let next_sn t rid = (rstate t rid).next_sn
let stats t = t.stats
let policy t = t.policy
let node t = t.node
let name t = t.name
let add_tracer t f =
  match t.tracer with
  | None -> t.tracer <- Some f
  | Some g ->
      t.tracer <-
        Some
          (fun now ev ->
            g now ev;
            f now ev)

let set_validator t f = t.validator <- Some f

let pp_trace_event ppf = function
  | T_request r -> Format.fprintf ppf "request  %a" Types.pp_request r
  | T_grant (g, `Normal) -> Format.fprintf ppf "grant    %a" Types.pp_grant g
  | T_grant (g, `Early) ->
      Format.fprintf ppf "grant    %a  <- early grant (over canceling NBW)"
        Types.pp_grant g
  | T_revoke { t_rid; t_lock_id; t_client } ->
      Format.fprintf ppf "revoke   r%d#%d -> client %d" t_rid t_lock_id t_client
  | T_ack { t_rid; t_lock_id } ->
      Format.fprintf ppf "ack      r%d#%d now CANCELING" t_rid t_lock_id
  | T_release { t_rid; t_lock_id } ->
      Format.fprintf ppf "release  r%d#%d" t_rid t_lock_id
  | T_downgrade { t_rid; t_lock_id; t_mode } ->
      Format.fprintf ppf "downgrade r%d#%d -> %s" t_rid t_lock_id
        (Mode.to_string t_mode)

let check_invariants t =
  Hashtbl.iter
    (fun _ rs ->
      (* Write-lock SNs unique per resource. *)
      let sns =
        List.filter_map
          (fun (g : lock) -> if Mode.is_write g.mode then Some g.sn else None)
          rs.granted
      in
      assert (List.length sns = List.length (List.sort_uniq Int.compare sns));
      List.iter (fun sn -> assert (sn < rs.next_sn)) sns;
      (* Overlapping granted locks must be compatible in at least one
         direction given their states. *)
      let rec pairs = function
        | [] -> ()
        | g :: rest ->
            List.iter
              (fun (h : lock) ->
                if Ranges.overlaps g.ranges h.ranges then
                  assert (
                    Lcm.compatible ~req:g.mode ~granted:h.mode ~state:h.state
                    || Lcm.compatible ~req:h.mode ~granted:g.mode ~state:g.state))
              rest;
            pairs rest
      in
      pairs rs.granted)
    t.resources

(* Direct entry points, mirroring Lock_server.submit / Lock_server.control. *)
let submit t req ~on_grant = handle_request t req ~reply:on_grant
let control t msg = handle_ctl t msg ~reply:(fun () -> ())
