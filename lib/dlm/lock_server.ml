open Ccpfs_util
open Dessim
open Netsim
module Int_map = Map.Make (Int)

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
  seq : int;
      (* per-server insertion stamp; descending seq reproduces the
         newest-first order the granted set was historically kept in, so
         revocation fan-out order is unchanged from the list days *)
}

type waiter = {
  req : Types.request;
  reply : Types.lock_reply -> unit;
  mutable eff_mode : Mode.t;
  enq_time : float;
  mutable acks_time : float option;
      (* when this waiter's conflict set first became all-CANCELING *)
  internal : bool; (* sync_resource pseudo-request: drop lock on grant *)
}

(* Indexed per-resource state (the tentpole of the Fig. 17-20 hot path):

   - [waiting] is a doubly-linked FIFO deque: O(1) enqueue, O(1) removal
     of a waiter granted out of position, O(1) queue depth for the
     dlm.queue metric and the max_queue stat;
   - [granted] is a lock-id hash table: O(1) find/release/ack;
   - [granted_idx] and [early_idx] are interval indexes over each lock's
     range hull, so conflict checks visit only hull-overlapping grants
     instead of the whole set (candidates are still confirmed against
     exact ranges).  The two partition the grants: [early_idx] holds
     exactly the CANCELING NBW locks, [granted_idx] every other one.
     Under strided contention dozens of revoked NBW locks, most with
     hulls reaching EOF, wait out the flush backlog; NBW and BW requests
     are compatible with all of them (early grant), so their conflict
     checks skip [early_idx] (Lustre's LDLM keeps one extent tree per
     lock mode for the same reason). *)
type rstate = {
  rid : Types.resource_id;
  mutable next_sn : int;
  granted : lock Int_tbl.t; (* by lock id *)
  granted_idx : lock Interval_index.t;
      (* by range hull: every grant not in [early_idx] *)
  early_idx : lock Interval_index.t;
      (* by range hull: the CANCELING NBW grants *)
  by_client : int Int_tbl.t;
      (* grant count per client: a waiter whose client holds nothing has
         no same-client locks to convert, so its blocked-queue visit can
         be skipped in O(1) (see [pass]) *)
  waiting : waiter Dllist.t; (* FIFO, head first *)
  q_lo : int Int_map.t array;
      (* waiting-queue expansion index, one slot per request-mode rank
         (see [Blocked.mode_rank]): a multiset (hull-lo -> count) of the
         queued waiters in that mode class, so the expansion bound in
         [expanded_ranges] is four ordered-map probes instead of a scan
         of the whole queue per grant *)
  waiting_by_client : int Int_tbl.t;
      (* queued-waiter count per client *)
  mutable convertible : int;
      (* clients in both [by_client] and [waiting_by_client]: it tells a
         saturated [pass] in O(1) whether any remaining visit could still
         merge a same-client grant — if none can, the rest of the walk is
         a provable no-op and is cut short *)
  mutable total_grants : int;
      (* cumulative; drives DLM-Lustre's contention heuristic *)
  (* Quiescent pass cache: after a [pass] during which nothing mutated
     once the walk left its first waiter queued ([gen] is the witness),
     the pass's blocked-set accumulator describes the entire queue.  Every new submit is then decided by
     visiting only the fresh tail against the cached accumulator — O(1)
     per request instead of re-scanning the queue — because a quiescent
     revisit of every earlier waiter is provably a no-op (same granted
     set, same blocked prefix, revokes already sent, acks_time already
     stamped).  Back-to-back requests hit it: each leaves the cache
     behind for the next. *)
  mutable gen : int;
      (* bumped by every semantic mutation of this resource (grant,
         revoke send, ack, downgrade, release, reinstall) *)
  mutable pass_blocked : unit Extent_map.t array option;
      (* [Blocked.t] of the last settled pass; None = invalid *)
  mutable pass_saturated : bool; (* saturation flag of that pass *)
}

let touch rs =
  rs.gen <- rs.gen + 1;
  rs.pass_blocked <- None

(* Replicated-state-machine feed (lib/repl, DESIGN.md §16): every durable
   state transition of the lock table is published as an upsert/drop
   event.  The stream is a function of the server's deterministic
   execution, so shipping it to backups and replaying it reconstructs the
   table bit for bit.  Queued waiters are deliberately NOT replicated —
   their reply closures belong to this server's transport, and the fenced
   retry path resubmits them after a failover (same contract as the
   gather-based recovery). *)
type repl_event =
  | R_lock of {
      rid : Types.resource_id;
      lock_id : int;
      client : Types.client_id;
      mode : Mode.t;
      ranges : Ranges.t;
      sn : int;
      state : Lcm.lock_state;
    }
      (* upsert: grant, reinstall, revoke-ack, downgrade.  The fields of
         [Types.lock], inline: one block per logged event. *)
  | R_drop of { e_rid : Types.resource_id; e_lock_id : int }
      (* release, upgrade-merge, pseudo-lock drop *)
  | R_sn of { e_rid : Types.resource_id; e_next_sn : int }
      (* sequencer advance / floor restore *)
  | R_drop_resource of { e_rid : Types.resource_id }
      (* whole-resource drop: migration out *)

type trace_event =
  | T_request of Types.request
  | T_grant of Types.grant * [ `Normal | `Early ]
  | T_revoke of { t_rid : Types.resource_id; t_lock_id : int;
                  t_client : Types.client_id }
  | T_ack of { t_rid : Types.resource_id; t_lock_id : int }
  | T_release of { t_rid : Types.resource_id; t_lock_id : int }
  | T_downgrade of { t_rid : Types.resource_id; t_lock_id : int;
                     t_mode : Mode.t }
  | T_crash of { t_dropped_waiters : int }

(* Shard-awareness hooks (DESIGN.md §15), installed by the cluster once a
   routing table exists.  [sh_owned] answers against the authoritative
   map; [sh_epoch] stamps the bounces; [sh_forward_ctl] routes a
   fire-and-forget control message that arrived here after its resource
   migrated away (it cannot be bounced — nobody awaits a reply). *)
type sharding = {
  sh_owned : Types.resource_id -> bool;
  sh_epoch : unit -> int;
  sh_forward_ctl :
    Types.resource_id -> (Types.ctl_msg, unit) Rpc.endpoint option;
}

type t = {
  eng : Engine.t;
  node : Node.t;
  name : string;
  policy : Policy.t;
  resources : rstate Int_tbl.t; (* by resource id *)
  clients : (Types.server_msg, unit) Rpc.endpoint Int_tbl.t; (* by client id *)
  mutable next_lock_id : int;
  mutable next_seq : int;
  stats : stats;
  mutable lock_ep : (Types.request, Types.lock_reply) Rpc.endpoint option;
  mutable ctl_ep : (Types.ctl_msg, unit) Rpc.endpoint option;
  mutable tracer : (float -> trace_event -> unit) option;
  mutable validator : (t -> unit) option;
  mutable repl : (repl_event -> unit) option;
      (* grant-log feed; None = replication off *)
  q_depth : Obs.Metrics.histogram; (* queue length at each enqueue *)
  q_gauge : Obs.Metrics.gauge; (* live queued-waiter total, all resources *)
  mutable queued_total : int; (* mirror of the gauge (metrics may be off) *)
  mutable sharding : sharding option;
  frozen : (Types.request * (Types.lock_reply -> unit)) list ref Int_tbl.t;
      (* migration intake freeze: arrivals for a freezing resource park
         here (newest first) until commit bounces or abort replays them *)
  mutable sn_reuse_every : int; (* injected sequencer fault: 0 = off *)
  mutable sn_issued : int;
}

(* ------------------------------------------------------------------ *)
(* Granted-set operations                                              *)
(* ------------------------------------------------------------------ *)

(* The tree a lock belongs in is a function of its (mode, state), so
   every write to either goes through [set_state]/[set_mode], which move
   the lock when its class changes. *)
let in_early_idx (g : lock) =
  Mode.equal g.mode Mode.NBW && g.state = Lcm.Canceling

(* Whether a request in [mode] is compatible with every [early_idx]
   entry — true for NBW and BW — so its conflict checks can skip that
   tree outright. *)
let passes_early_idx mode =
  Lcm.compatible ~req:mode ~granted:Mode.NBW ~state:Lcm.Canceling

let index_of rs ~early = if early then rs.early_idx else rs.granted_idx
let index_add rs ~early (g : lock) =
  Interval_index.add (index_of rs ~early) g.hull ~id:g.id g

let index_remove rs ~early (g : lock) =
  Interval_index.remove (index_of rs ~early) g.hull ~id:g.id

(* [rs.convertible] moves when client [c] enters or leaves one of the
   two per-client tables while it is in the other. *)
let convertible_step rs other c delta =
  if Int_tbl.mem other c then rs.convertible <- rs.convertible + delta

let granted_add rs (g : lock) =
  Int_tbl.replace rs.granted g.id g;
  index_add rs ~early:(in_early_idx g) g;
  let n =
    match Int_tbl.find_opt rs.by_client g.client with Some n -> n | None -> 0
  in
  if n = 0 then convertible_step rs rs.waiting_by_client g.client 1;
  Int_tbl.replace rs.by_client g.client (n + 1)

let granted_remove rs (g : lock) =
  Int_tbl.remove rs.granted g.id;
  index_remove rs ~early:(in_early_idx g) g;
  match Int_tbl.find rs.by_client g.client with
  | 1 ->
      Int_tbl.remove rs.by_client g.client;
      convertible_step rs rs.waiting_by_client g.client (-1)
  | n -> Int_tbl.replace rs.by_client g.client (n - 1)

(* After a write to [g]'s mode or state: remove it under its old class
   and re-add it under the new one.  A write that keeps the class leaves
   the entry where it is: it holds the lock record itself, keyed by hull
   and id only. *)
let refile rs (g : lock) ~was_early =
  let early = in_early_idx g in
  if early <> was_early then begin
    index_remove rs ~early:was_early g;
    index_add rs ~early g
  end

let set_state rs (g : lock) state =
  let was_early = in_early_idx g in
  g.state <- state;
  refile rs g ~was_early

let set_mode rs (g : lock) mode =
  let was_early = in_early_idx g in
  g.mode <- mode;
  refile rs g ~was_early

(* Whole-table grant fold in raw table order, no sort.  Off the
   per-request path (those go through the two indexes); its callers are
   [sorted_locks] (migration, [granted_locks]) and the invariant sweep,
   each of which either sorts the result before anything order-visible
   or folds it into a set-shaped check. *)
let granted_fold f rs acc =
  (Int_tbl.fold
     [@lint.allow
       "D001 whole-table fold; every caller sorts its result before it \
        escapes or asserts a set-shaped property"])
    (fun _ g acc -> f g acc)
    rs.granted acc

(* The resource's grants as every module outside this table describes
   a lock, sorted by lock id. *)
let sorted_locks rs =
  granted_fold
    (fun (g : lock) acc ->
      ({ rid = rs.rid; lock_id = g.id; client = g.client; mode = g.mode;
         ranges = g.ranges; sn = g.sn; state = g.state }
        : Types.lock)
      :: acc)
    rs []
  |> List.sort (fun (a : Types.lock) b -> Int.compare a.lock_id b.lock_id)
let find_lock rs lock_id = Int_tbl.find_opt rs.granted lock_id

(* The grants whose hull overlaps any of [ranges] and that satisfy [p],
   newest first — the order the old list-based granted set presented
   candidates in.  [p] runs inside the index walk, so only survivors are
   consed, deduplicated and sorted: filtering commutes with the sort
   because [seq] is unique, so the survivors come out in the same order
   as filtering the full sorted candidate list would give.  The hull
   test is a superset filter: [p] re-checks exact ranges.  [early_idx]
   is walked only when [~early] is set; the caller clears it when [p]
   rejects every CANCELING NBW lock.  Here and at the other probes of
   [early_idx], an empty tree is skipped before the walk: the walk's
   closures would be allocated even for an empty tree, and [early_idx]
   is empty most of the time outside strided early-grant runs. *)
let rec collect idx p acc = function
  | [] -> acc
  | r :: rest ->
      collect idx p (Interval_index.filter_overlapping idx r p acc) rest

let hull_overlapping rs ~early (ranges : Ranges.t) p =
  let ranges = (ranges :> Interval.t list) in
  let candidates =
    collect rs.granted_idx p
      (if early && not (Interval_index.is_empty rs.early_idx) then
         collect rs.early_idx p [] ranges
       else [])
      ranges
  in
  let newest_first (a : lock) b = Int.compare b.seq a.seq in
  match ranges with
  | [ _ ] -> List.sort newest_first candidates
  | _ -> List.sort_uniq newest_first candidates

(* ------------------------------------------------------------------ *)
(* Per-pass blocked-request accumulator                                *)
(* ------------------------------------------------------------------ *)

(* FIFO fairness: a request may not overtake an earlier-queued request it
   conflicts with.  The old implementation kept the earlier blocked
   requests as a list and scanned it per waiter — O(queue^2) per pass.
   Bucketing the blocked ranges by mode (there are four) turns the check
   into at most four extent-map probes: two range lists overlap iff one
   overlaps the union of the other's bucket, and mode conflict depends
   only on the modes. *)
module Blocked = struct
  type t = unit Extent_map.t array (* indexed by mode rank;
                                      = rstate.pass_blocked's payload *)

  let mode_rank = function Mode.PR -> 0 | Mode.NBW -> 1 | Mode.BW -> 2 | Mode.PW -> 3
  let modes = [| Mode.PR; Mode.NBW; Mode.BW; Mode.PW |]
  let create () = Array.make 4 Extent_map.empty

  let add (t : t) mode ranges =
    let i = mode_rank mode in
    t.(i) <-
      List.fold_left (fun m (r : Interval.t) -> Extent_map.set m r ()) t.(i)
        ranges

  (* Written without local closures: [blocks] runs on every visit. *)
  let rec overlaps_any m = function
    | [] -> false
    | r :: rest -> Extent_map.overlaps m r || overlaps_any m rest

  let rec blocks_from (t : t) mode ranges i =
    i < 4
    && (let m = modes.(i) in
        ((Lcm.request_conflict mode m || Lcm.request_conflict m mode)
        && (not (Extent_map.is_empty t.(i)))
        && overlaps_any t.(i) ranges)
        || blocks_from t mode ranges (i + 1))

  let blocks t mode ranges = blocks_from t mode ranges 0

  (* A blocked entry of a write mode spanning the whole offset space
     blocks every possible later request: the three write modes conflict
     with all four modes, and [0, eof) overlaps every valid interval.
     Detecting such an entry lets [pass] stop probing the buckets. *)
  let saturates mode ranges =
    (match mode with Mode.PR -> false | Mode.NBW | Mode.BW | Mode.PW -> true)
    && List.exists
         (fun (r : Interval.t) -> r.lo = 0 && r.hi = Interval.eof)
         ranges
end

(* ------------------------------------------------------------------ *)
(* Waiting-queue index maintenance                                     *)
(* ------------------------------------------------------------------ *)

(* Every queue transition funnels through these three: enqueue
   ([submit_one], [sync_resource]), unlink on grant ([visit_node]) and
   the conversion join rewriting a queued waiter's effective mode
   ([visit_node]).  A crashed resource drops its whole [rstate], index
   included, so the crash paths need no handling. *)
let queue_index_update rs ~rank ~lo delta =
  let m = rs.q_lo.(rank) in
  let n = (match Int_map.find_opt lo m with Some n -> n | None -> 0) + delta in
  rs.q_lo.(rank) <- (if n <= 0 then Int_map.remove lo m else Int_map.add lo n m)

let queue_track t rs (w : waiter) delta =
  queue_index_update rs
    ~rank:(Blocked.mode_rank w.eff_mode)
    ~lo:(Ranges.hull w.req.ranges).Interval.lo delta;
  let c = w.req.client in
  let was =
    match Int_tbl.find_opt rs.waiting_by_client c with
    | Some n -> n
    | None -> 0
  in
  let n = was + delta in
  if n <= 0 then Int_tbl.remove rs.waiting_by_client c
  else Int_tbl.replace rs.waiting_by_client c n;
  if (was > 0) <> (n > 0) then
    convertible_step rs rs.by_client c (if n > 0 then 1 else -1);
  (* Server-wide live queue depth: every enqueue/unlink funnels through
     here, so the counter (and its gauge, the rebalancer's load signal)
     is exact at all times. *)
  t.queued_total <- t.queued_total + delta;
  Obs.Metrics.set_gauge_int t.q_gauge t.queued_total

let queue_enqueue t rs w = queue_track t rs w 1
let queue_unlink t rs w = queue_track t rs w (-1)

(* Called after [visit_node] writes the conversion join back into
   [eff_mode]: move the waiter's entry between mode buckets. *)
let queue_retag rs (w : waiter) ~old_mode =
  if not (Mode.equal old_mode w.eff_mode) then begin
    let lo = (Ranges.hull w.req.ranges).Interval.lo in
    queue_index_update rs ~rank:(Blocked.mode_rank old_mode) ~lo (-1);
    queue_index_update rs ~rank:(Blocked.mode_rank w.eff_mode) ~lo 1
  end

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
  | T_crash { t_dropped_waiters } ->
      inst "lock.crash" [ ("dropped_waiters", Int t_dropped_waiters) ]

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

let repl_emit t ev = match t.repl with Some f -> f ev | None -> ()

let repl_lock t rid (g : lock) =
  repl_emit t
    (R_lock
       { rid; lock_id = g.id; client = g.client; mode = g.mode;
         ranges = g.ranges; sn = g.sn; state = g.state })

let fresh_stats () =
  {
    grants = 0; early_grants = 0; early_revocations = 0; revokes_sent = 0;
    upgrades = 0; downgrades = 0; releases = 0; expansions = 0;
    revocation_wait = 0.; release_wait = 0.; max_queue = 0;
  }

let rstate t rid =
  match Int_tbl.find_opt t.resources rid with
  | Some rs -> rs
  | None ->
      let rs =
        {
          rid;
          next_sn = 1;
          granted = Int_tbl.create 16;
          granted_idx = Interval_index.create ();
          early_idx = Interval_index.create ();
          by_client = Int_tbl.create 16;
          waiting = Dllist.create ();
          q_lo = Array.make 4 Int_map.empty;
          waiting_by_client = Int_tbl.create 16;
          convertible = 0;
          total_grants = 0;
          gen = 0;
          pass_blocked = None;
          pass_saturated = false;
        }
      in
      Int_tbl.replace t.resources rid rs;
      rs

let lock_conflicts_waiter ~eff_mode ~ranges (g : lock) =
  Ranges.overlaps ranges g.ranges
  && not (Lcm.compatible ~req:eff_mode ~granted:g.mode ~state:g.state)

(* Compute the (possibly expanded) ranges for a grant and whether any
   expansion happened.  Only singleton-range requests expand, only the
   end of the range grows (§II-A), and the expansion stops at the first
   conflicting granted lock or queued request above it. *)
let expanded_ranges t rs (w : waiter) =
  match (t.policy.Policy.expansion, (w.req.ranges :> Interval.t list)) with
  | (Policy.Greedy | Policy.Capped _), [ iv ] ->
      let bound = ref Interval.eof in
      let consider lo = if lo >= iv.Interval.hi && lo < !bound then bound := lo in
      let incompatible (g : lock) =
        not (Lcm.compatible ~req:w.eff_mode ~granted:g.mode ~state:g.state)
      in
      (* Granted contribution: the smallest range start at or above the
         request's end, over the incompatible grants.  None of those
         overlaps the request (it would have conflicted), so each either
         lies wholly above [iv.hi], contributing its hull-lo, or — with
         two or more ranges — straddles [iv.hi] with its hull.  The first
         kind: the index is ordered by hull-lo, so the minimum is the
         first incompatible entry from [iv.hi] on, an ordered probe that
         passes over only the compatible grants in between.  The second
         kind: a stabbing query at [iv.hi].  [early_idx] can bound only a
         waiter its CANCELING NBW locks are incompatible with. *)
      let bound_by idx =
        (match
           Interval_index.find_first_from idx ~lo:iv.Interval.hi incompatible
         with
        | Some (hull, _, _) -> consider hull.Interval.lo
        | None -> ());
        if iv.Interval.hi < Interval.eof then
          Interval_index.iter_overlapping idx
            (Interval.v ~lo:iv.Interval.hi ~hi:(iv.Interval.hi + 1))
            (fun _ _ (g : lock) ->
              match (g.ranges :> Interval.t list) with
              | _ :: _ :: _ as ranges when incompatible g ->
                  List.iter (fun (r : Interval.t) -> consider r.lo) ranges
              | _ -> ())
      in
      bound_by rs.granted_idx;
      if
        (not (passes_early_idx w.eff_mode))
        && not (Interval_index.is_empty rs.early_idx)
      then bound_by rs.early_idx;
      (* Queue contribution via the per-mode index: the smallest queued
         hull-lo at or above the request's end, over the mode classes
         that conflict with the waiter — the same bound a full queue
         scan computes, in at most four ordered-map probes. *)
      Array.iteri
        (fun rank m ->
          if
            (not (Int_map.is_empty rs.q_lo.(rank)))
            && (Lcm.request_conflict w.eff_mode m
               || Lcm.request_conflict m w.eff_mode)
          then
            match
              Int_map.find_first_opt
                (fun lo -> lo >= iv.Interval.hi)
                rs.q_lo.(rank)
            with
            | Some (lo, _) -> consider lo
            | None -> ())
        Blocked.modes;
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
  touch rs;
  g.revoke_sent <- true;
  t.stats.revokes_sent <- t.stats.revokes_sent + 1;
  trace t (T_revoke { t_rid = rs.rid; t_lock_id = g.id; t_client = g.client });
  match Int_tbl.find_opt t.clients g.client with
  | Some ep ->
      Rpc.notify ep ~src:t.node (Types.Revoke { rid = rs.rid; lock_id = g.id })
  | None ->
      invalid_arg
        (Printf.sprintf "%s: revoke for unregistered client %d" t.name g.client)

let grant_waiter t rs (w : waiter) ~own ~early =
  touch rs;
  (* Merge away the holder's own conflicting locks (lock upgrading). *)
  List.iter (fun (o : lock) -> granted_remove rs o) own;
  rs.total_grants <- rs.total_grants + 1;
  let ranges, expanded = expanded_ranges t rs w in
  let ranges = List.fold_left (fun r o -> Ranges.union r o.ranges) ranges own in
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
  (* The queue scan runs last, and its cheap mode test before the range
     test: every conjunct is pure, so the order changes no verdict. *)
  let early_revoked =
    t.policy.Policy.early_revocation && (not expanded) && (not w.internal)
    && Dllist.exists
         (fun (w' : waiter) ->
           (Lcm.request_conflict w'.eff_mode mode
           || Lcm.request_conflict mode w'.eff_mode)
           && Ranges.overlaps w'.req.ranges ranges)
         rs.waiting
  in
  let state = if early_revoked then Lcm.Canceling else Lcm.Granted in
  t.next_lock_id <- t.next_lock_id + 1;
  t.next_seq <- t.next_seq + 1;
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
      seq = t.next_seq;
    }
  in
  granted_add rs lock;
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
  (* Replication feed, in the same simulated event as the grant reply:
     merged-away locks drop, the new lock upserts, and a write grant
     publishes the advanced sequencer so a replaying backup reproduces
     the SN stream exactly (including an injected reuse, which leaves
     [next_sn] unmoved). *)
  if Option.is_some t.repl then begin
    List.iter (fun (o : lock) -> repl_emit t (R_drop { e_rid = rs.rid; e_lock_id = o.id })) own;
    repl_lock t rs.rid lock;
    if Mode.is_write mode then
      repl_emit t (R_sn { e_rid = rs.rid; e_next_sn = rs.next_sn })
  end;
  w.reply (Types.Granted g);
  lock

(* Post-saturation adds are dead: every later blocked check
   short-circuits on [saturated]. *)
let note_blocked ~blocked ~saturated eff (ranges : Ranges.t) =
  let ranges = (ranges :> Interval.t list) in
  if not !saturated then begin
    Blocked.add blocked eff ranges;
    if Blocked.saturates eff ranges then saturated := true
  end

let rec mem_lock (g : lock) = function
  | [] -> false
  | (o : lock) :: rest -> o.id = g.id || mem_lock g rest

(* Whether a lock in [idx] overlaps [req_ranges], probed range by range
   over [ranges]. *)
let rec overlapped_in idx req_ranges = function
  | [] -> false
  | r :: rest ->
      Interval_index.exists_overlapping idx r (fun _ _ (g : lock) ->
          Ranges.overlaps req_ranges g.ranges)
      || overlapped_in idx req_ranges rest

(* The pure parts of a visit, shared by [visit_node] and the
   settled-queue check in [check_indexes].  Same-client GRANTED
   conflicts are merged by upgrading when conversion is on (and no
   revocation is already in flight). *)
let own_locks t rs (w : waiter) =
  if t.policy.Policy.auto_convert then
    hull_overlapping rs ~early:false w.req.ranges (fun (g : lock) ->
        g.client = w.req.client && g.state = Lcm.Granted
        && (not g.revoke_sent)
        && lock_conflicts_waiter ~eff_mode:w.eff_mode ~ranges:w.req.ranges g)
  else []

let joined_mode (w : waiter) own =
  List.fold_left (fun m (g : lock) -> Mode.join m g.mode) w.eff_mode own

(* Upgrading widens the grant to cover the merged locks' ranges, so
   conflict checks must run on the union: a PR lock expanded to EOF
   that upgrades to PW now conflicts where the PR did not. *)
let union_ranges (w : waiter) own =
  List.fold_left (fun r (g : lock) -> Ranges.union r g.ranges) w.req.ranges own

let conflicts_of rs ~eff ~union_ranges own =
  hull_overlapping rs ~early:(not (passes_early_idx eff)) union_ranges
    (fun (g : lock) ->
      (not (mem_lock g own))
      && lock_conflicts_waiter ~eff_mode:eff ~ranges:union_ranges g)

(* A saturated walk skips the visit of a waiter whose client holds no
   grant here: it could only be blocked, and has nothing to convert. *)
let skips_visit t rs ~saturated (w : waiter) =
  !saturated
  && ((not t.policy.Policy.auto_convert)
     || not (Int_tbl.mem rs.by_client w.req.client))

(* Visit one queue node against the blocked set accumulated over every
   earlier waiter: the shared core of [pass] (which folds it over a queue
   snapshot) and the [submit_one] fast path (which applies it to a fresh
   tail against the cached accumulator).  Returns true when the waiter
   was granted (and unlinked). *)
let visit_node t rs ~blocked ~saturated node =
  if
    (* Once an earlier waiter blocks the whole offset space, every
       later waiter is blocked too; if its client also holds no
       grants on this resource there is nothing to convert, so the
       visit would change no state at all (the only write a blocked
       visit performs is the conversion join into [eff_mode], and
       its [Blocked.add] cannot matter once the set saturates).
       Skipping it keeps a contended pass O(1) per queued request. *)
    skips_visit t rs ~saturated (Dllist.value node)
  then false
  else begin
    let w = Dllist.value node in
    let own = own_locks t rs w in
    let eff = joined_mode w own in
    let prev_eff = w.eff_mode in
    w.eff_mode <- eff;
    queue_retag rs w ~old_mode:prev_eff;
    let union_ranges = union_ranges w own in
    if
      !saturated
      || Blocked.blocks blocked eff (union_ranges :> Interval.t list)
    then begin
      note_blocked ~blocked ~saturated eff union_ranges;
      false
    end
    else begin
      let conflicts = conflicts_of rs ~eff ~union_ranges own in
      if List.is_empty conflicts then begin
        (* An early grant is one that proceeds over a CANCELING NBW lock
           it would conflict with were that lock still GRANTED: exactly
           an overlapping [early_idx] entry.  The only other CANCELING
           overlap a grant can have, PR over PR, is compatible in both
           states.  Order-insensitive, so an existence probe: no
           candidate list, no sort, and it stops at the first hit. *)
        let early =
          (not (Interval_index.is_empty rs.early_idx))
          && overlapped_in rs.early_idx w.req.ranges
               (w.req.ranges :> Interval.t list)
        in
        Dllist.remove rs.waiting node;
        queue_unlink t rs w;
        ignore (grant_waiter t rs w ~own ~early);
        true
      end
      else begin
        List.iter
          (fun (g : lock) ->
            if g.state = Lcm.Granted && not g.revoke_sent then
              send_revoke t rs g)
          conflicts;
        if
          Option.is_none w.acks_time
          && List.for_all (fun (g : lock) -> g.state = Lcm.Canceling) conflicts
        then w.acks_time <- Some (Engine.now t.eng);
        note_blocked ~blocked ~saturated eff union_ranges;
        false
      end
    end
  end

(* Once the blocked set saturates, the only visits that can still
   change state are same-client merges, and those need a queued waiter
   whose client holds a grant: one of [rs.convertible]. *)
let tail_may_convert t rs = t.policy.Policy.auto_convert && rs.convertible > 0

(* Walk the queue in place; granted waiters are unlinked immediately so
   later decisions in the same pass see a fresh queue.  A reply hook may
   re-enter [process] (internal sync requests) and remove nodes ahead of
   the walk — a removed node keeps its forward link ([Dllist.succ]) and
   [Dllist.active] skips it in O(1), so no per-pass node-list snapshot
   is needed (that allocation was measurable under the 512-client
   convoy).  [tail_may_convert] runs at most once per walk: a "cut"
   verdict stops the walk on the spot, so it can never go stale, while a
   "keep walking" verdict ([walk_on]) merely falls back to the per-node
   O(1) skip in [visit_node] — conservative if a later grant empties the
   intersection mid-walk, never wrong.  [settled_at] is [rs.gen] as the
   walk left its first waiter queued, -1 before that; the result is
   whether the walk made a late grant, one after that point.  A
   toplevel function rather than a closure, so a pass allocates no
   closure for the walk. *)
let rec walk t rs ~blocked ~saturated ~walk_on ~settled_at late = function
  | None -> late
  | Some node ->
      let late =
        if not (Dllist.active node) then late
        else if visit_node t rs ~blocked ~saturated node then
          late || !settled_at >= 0
        else begin
          if !settled_at < 0 then settled_at := rs.gen;
          late
        end
      in
      if not !saturated then
        walk t rs ~blocked ~saturated ~walk_on ~settled_at late
          (Dllist.succ node)
      else if walk_on || tail_may_convert t rs then
        walk t rs ~blocked ~saturated ~walk_on:true ~settled_at late
          (Dllist.succ node)
      else late

(* One scheduling pass over a resource's FIFO queue.  Returns true for
   a late grant: a waiter granted after the walk had left an earlier
   one queued, which a grant can unblock (a merge frees the holder's
   own locks), so the caller passes again.  A grant before the first
   waiter left queued needs no second pass: every waiter still queued
   was visited after it.  The pass leaves its accumulator behind as the
   quiescent pass cache when nothing has mutated ([rs.gen] is the
   witness) since the walk left its first waiter queued: the waiters
   before it were all granted, and each one after it was visited
   against the state a second pass would see.  A walk that left no
   waiter queued leaves the queue empty, and the empty accumulator
   describes it. *)
let pass t rs =
  rs.pass_blocked <- None;
  let blocked = Blocked.create () in
  let saturated = ref false in
  let settled_at = ref (-1) in
  let late =
    walk t rs ~blocked ~saturated ~walk_on:false ~settled_at false
      (Dllist.first_node rs.waiting)
  in
  if !settled_at < 0 || rs.gen = !settled_at then begin
    rs.pass_blocked <- Some blocked;
    rs.pass_saturated <- !saturated
  end;
  late

let rec process t rs =
  if pass t rs && not (Dllist.is_empty rs.waiting) then process t rs

let submit_one t (req : Types.request) ~reply =
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
  let node = Dllist.push_back rs.waiting w in
  queue_enqueue t rs w;
  let q = Dllist.length rs.waiting in
  if q > t.stats.max_queue then t.stats.max_queue <- q;
  Obs.Metrics.observe_int t.q_depth q;
  match rs.pass_blocked with
  | Some blocked ->
      (* Quiescent fast path: nothing has mutated since the last settled
         pass, so revisiting every earlier waiter would be a no-op — the
         cached accumulator stands in for the whole prefix and only the
         fresh tail needs deciding.  A grant (or any other mutation the
         visit performs) bumps [rs.gen], dropping the cache, and the
         follow-up [process] rebuilds it once the queue settles. *)
      let saturated = ref rs.pass_saturated in
      let granted = visit_node t rs ~blocked ~saturated node in
      rs.pass_saturated <- !saturated;
      if granted then process t rs
  | None -> process t rs

(* Ownership gate of the sharded namespace (DESIGN.md §15).  A request
   for a frozen resource parks (the map still names this server, so a
   bounce would just come straight back); a request for a resource this
   server does not own is bounced with the current map epoch, without
   ever creating resource state here. *)
let admit_one t (req : Types.request) ~reply =
  match Int_tbl.find_opt t.frozen req.rid with
  | Some parked -> parked := (req, reply) :: !parked
  | None -> (
      match t.sharding with
      | Some sh when not (sh.sh_owned req.rid) ->
          reply (Types.Stale_owner { epoch = sh.sh_epoch () })
      | _ -> submit_one t req ~reply)

let handle_request t (req : Types.request) ~reply =
  admit_one t req ~reply;
  validate t

(* Direct in-process entry (tests, benchmarks, the colocated data
   server): no shard gate, replies are plain grants. *)
let grant_only t (req : Types.request) reply : Types.lock_reply -> unit =
  function
  | Types.Granted g -> reply g
  | Types.Stale_owner { epoch } ->
      invalid_arg
        (Printf.sprintf "%s: direct submit bounced (rid %d, map epoch %d)"
           t.name req.Types.rid epoch)

(* Whether changing [g]'s mode to [mode] is invisible to every queued
   waiter, so that a settled queue stays settled and its pass cache
   stays valid without a pass: [g] is in no waiter's own set (it is
   CANCELING or its revoke was sent, and [own_locks] takes neither),
   and each mode class with a queued waiter finds [g] exactly as
   compatible in the new mode as in the old.  The test is symmetric,
   so a "downgrade" to a stronger mode is judged the same way.  The
   pw-convoy handoff sends one per revoked PW lock: PW -> NBW, both
   incompatible with the queued PW requests. *)
let downgrade_unseen rs (g : lock) mode =
  let rec same_verdicts rank =
    rank >= 4
    || (Int_map.is_empty rs.q_lo.(rank)
       || Bool.equal
            (Lcm.compatible ~req:Blocked.modes.(rank) ~granted:g.mode
               ~state:g.state)
            (Lcm.compatible ~req:Blocked.modes.(rank) ~granted:mode
               ~state:g.state))
       && same_verdicts (rank + 1)
  in
  (g.state = Lcm.Canceling || g.revoke_sent) && same_verdicts 0

let ctl_rid : Types.ctl_msg -> Types.resource_id = function
  | Types.Revoke_ack { rid; _ }
  | Types.Downgrade { rid; _ }
  | Types.Release { rid; _ } ->
      rid

let handle_ctl t (msg : Types.ctl_msg) ~reply =
  match t.sharding with
  | Some sh when not (sh.sh_owned (ctl_rid msg)) ->
      (* A control message for a resource that migrated away: route it on
         to the current owner (one extra hop), never touch local state —
         processing it here would resurrect an rstate on a non-owner.
         With no known owner endpoint the message is dropped, which is
         safe: every ctl handler no-ops on unknown lock ids. *)
      (match sh.sh_forward_ctl (ctl_rid msg) with
      | Some ep when Rpc.name ep <> t.name ^ ".ctl" ->
          Rpc.notify ep ~src:t.node msg
      | Some _ | None -> ());
      reply ()
  | _ ->
  (match msg with
  | Types.Revoke_ack { rid; lock_id } -> (
      trace t (T_ack { t_rid = rid; t_lock_id = lock_id });
      let rs = rstate t rid in
      match find_lock rs lock_id with
      | Some g when g.state = Lcm.Granted ->
          touch rs;
          set_state rs g Lcm.Canceling;
          repl_lock t rid g;
          process t rs
      | Some _ | None -> ())
  | Types.Downgrade { rid; lock_id; mode } -> (
      trace t (T_downgrade { t_rid = rid; t_lock_id = lock_id; t_mode = mode });
      let rs = rstate t rid in
      match find_lock rs lock_id with
      | Some g ->
          let unseen = downgrade_unseen rs g mode in
          if not unseen then touch rs;
          set_mode rs g mode;
          t.stats.downgrades <- t.stats.downgrades + 1;
          repl_lock t rid g;
          if not unseen then process t rs
      | None -> ())
  | Types.Release { rid; lock_id } ->
      trace t (T_release { t_rid = rid; t_lock_id = lock_id });
      let rs = rstate t rid in
      (match find_lock rs lock_id with
      | Some g ->
          touch rs;
          granted_remove rs g;
          t.stats.releases <- t.stats.releases + 1;
          repl_emit t (R_drop { e_rid = rid; e_lock_id = lock_id });
          process t rs
      | None -> ()));
  validate t;
  reply ()

let submit t req ~on_grant =
  submit_one t req ~reply:(grant_only t req on_grant);
  validate t

let control t msg = handle_ctl t msg ~reply:(fun () -> ())

let create eng params ~node ~name ~policy =
  let t =
    {
      eng; node; name; policy;
      resources = Int_tbl.create 64;
      clients = Int_tbl.create 64;
      next_lock_id = 0;
      next_seq = 0;
      stats = fresh_stats ();
      lock_ep = None;
      ctl_ep = None;
      tracer = None;
      validator = None;
      repl = None;
      q_depth =
        Obs.Metrics.histogram (Engine.metrics eng)
          (Printf.sprintf "dlm.%s.queue_depth" name);
      q_gauge =
        Obs.Metrics.gauge (Engine.metrics eng)
          (Printf.sprintf "dlm.%s.queue" name);
      queued_total = 0;
      sharding = None;
      frozen = Int_tbl.create 4;
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
let register_client t cid ep = Int_tbl.replace t.clients cid ep

let min_unreleased_write_sn t rid iv =
  match Int_tbl.find_opt t.resources rid with
  | None -> None
  | Some rs ->
      (* Hull-overlap narrows the scan; the exact range check decides.
         Both trees: a CANCELING NBW lock is unreleased too. *)
      let query = Ranges.single iv in
      let min_sn idx init =
        Interval_index.fold_overlapping idx iv ~init
          ~f:(fun acc _hull _id (g : lock) ->
            if Mode.is_write g.mode && Ranges.overlaps query g.ranges then
              match acc with
              | None -> Some g.sn
              | Some m -> Some (min m g.sn)
            else acc)
      in
      min_sn rs.early_idx (min_sn rs.granted_idx None)

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
  let w_reply : Types.lock_reply -> unit = function
    | Types.Stale_owner _ ->
        (* Internal waiters are never bounced: a migration with one
           queued aborts instead ([migrate_out]). *)
        invalid_arg (t.name ^ ": internal sync waiter bounced")
    | Types.Granted g ->
        (* The pseudo-lock served its purpose the instant it is grantable:
           every conflicting write lock has been released.  Drop it. *)
        (match find_lock rs g.lock_id with
        | Some l ->
            touch rs;
            granted_remove rs l;
            repl_emit t (R_drop { e_rid = rid; e_lock_id = l.id })
        | None -> ());
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
  (* The internal waiter bypasses the submit fast path, so the cached
     accumulator no longer covers the queue: drop it before processing. *)
  touch rs;
  ignore (Dllist.push_back rs.waiting w);
  queue_enqueue t rs w;
  process t rs;
  validate t

let sorted_resources t = Int_tbl.bindings_sorted t.resources

let crash t =
  List.iter
    (fun (rid, rs) ->
      if not (Dllist.is_empty rs.waiting) then
        invalid_arg
          (Printf.sprintf "%s: crash with %d queued requests on resource %d"
             t.name (Dllist.length rs.waiting) rid))
    (sorted_resources t);
  if Int_tbl.length t.frozen > 0 then
    invalid_arg (t.name ^ ": crash during a resource migration");
  Int_tbl.reset t.resources;
  t.queued_total <- 0;
  Obs.Metrics.set_gauge t.q_gauge 0.

let crash_online t =
  (* Unlike [crash], queued waiters are allowed — and lost with the rest
     of the table.  Safe only when every waiter's caller retransmits (the
     fenced retry path): its resubmission re-enqueues the request on the
     recovered server and re-triggers any revocations it needs.  Parked
     migration intake is lost the same way. *)
  let dropped =
    List.fold_left
      (fun acc (_, rs) -> acc + Dllist.length rs.waiting)
      0 (sorted_resources t)
    + Int_tbl.fold_sorted
        (fun _ parked acc -> acc + List.length !parked)
        t.frozen 0
  in
  Int_tbl.reset t.resources;
  Int_tbl.reset t.frozen;
  t.queued_total <- 0;
  Obs.Metrics.set_gauge t.q_gauge 0.;
  trace t (T_crash { t_dropped_waiters = dropped });
  dropped

let reinstall t locks =
  List.iter
    (fun (l : Types.lock) ->
      let rs = rstate t l.rid in
      touch rs;
      t.next_seq <- t.next_seq + 1;
      let lock =
        {
          id = l.lock_id;
          client = l.client;
          mode = l.mode;
          ranges = l.ranges;
          hull = Ranges.hull l.ranges;
          sn = l.sn;
          state = l.state;
          (* A canceling lock's holder is already flushing; no callback
             must ever be sent for it again. *)
          revoke_sent = (l.state = Lcm.Canceling);
          seq = t.next_seq;
        }
      in
      granted_add rs lock;
      if l.lock_id >= t.next_lock_id then t.next_lock_id <- l.lock_id + 1;
      if l.sn >= rs.next_sn then rs.next_sn <- l.sn + 1;
      (* Reinstalls feed the log too: a recovered (or adopting) primary
         re-seeds its backups under the new epoch, so log continuity
         survives consecutive failovers. *)
      if Option.is_some t.repl then begin
        repl_lock t l.rid lock;
        repl_emit t (R_sn { e_rid = l.rid; e_next_sn = rs.next_sn })
      end)
    locks

let restore_sn_floor t rid sn =
  let rs = rstate t rid in
  if sn >= rs.next_sn then begin
    rs.next_sn <- sn + 1;
    repl_emit t (R_sn { e_rid = rid; e_next_sn = rs.next_sn })
  end

(* ------------------------------------------------------------------ *)
(* Sharded namespace: ownership gate and resource migration            *)
(* ------------------------------------------------------------------ *)

let set_sharding t ~owned ~epoch ~forward_ctl =
  t.sharding <-
    Some { sh_owned = owned; sh_epoch = epoch; sh_forward_ctl = forward_ctl }

type migration_state = {
  mig_rid : Types.resource_id;
  mig_next_sn : int;
  mig_locks : Types.lock list; (* sorted by lock id *)
  mig_clients : (Types.client_id * (Types.server_msg, unit) Rpc.endpoint) list;
      (* revoke-callback registrations the new owner needs, sorted *)
}

let freeze t rid =
  if Int_tbl.mem t.frozen rid then
    invalid_arg (Printf.sprintf "%s: resource %d already freezing" t.name rid);
  Int_tbl.add t.frozen rid (ref [])

let cancel_freeze t rid =
  match Int_tbl.find_opt t.frozen rid with
  | None -> ()
  | Some parked ->
      Int_tbl.remove t.frozen rid;
      (* Replay the parked intake in arrival order: this server still
         owns the resource, so the requests queue normally. *)
      List.iter (fun (req, reply) -> admit_one t req ~reply) (List.rev !parked);
      validate t

let is_frozen t rid = Int_tbl.mem t.frozen rid

let can_migrate t rid =
  match Int_tbl.find_opt t.resources rid with
  | None -> true
  | Some rs -> not (Dllist.exists (fun (w : waiter) -> w.internal) rs.waiting)

let migrate_out t rid ~epoch =
  let parked =
    match Int_tbl.find_opt t.frozen rid with
    | Some p -> p
    | None -> invalid_arg (t.name ^ ": migrate_out without freeze")
  in
  match Int_tbl.find_opt t.resources rid with
  | Some rs when Dllist.exists (fun (w : waiter) -> w.internal) rs.waiting ->
      (* A colocated force-sync holds an internal pseudo-request whose
         reply closure closes over this server's state — it cannot move.
         Abort; the caller cancels the freeze and retries later. *)
      None
  | rs_opt ->
      Int_tbl.remove t.frozen rid;
      let bounce reply = reply (Types.Stale_owner { epoch }) in
      let st =
        match rs_opt with
        | None ->
            { mig_rid = rid; mig_next_sn = 1; mig_locks = []; mig_clients = [] }
        | Some rs ->
            (* Queued waiters cannot be transferred — their reply closures
               belong to this server's transport.  Bounce them with the
               post-migration epoch: each client refreshes its map and
               resubmits at the new owner (FIFO order across a migration
               is intentionally relaxed, as it is across a failover). *)
            let rec drain () =
              match Dllist.first_node rs.waiting with
              | None -> ()
              | Some node ->
                  let w = Dllist.value node in
                  Dllist.remove rs.waiting node;
                  queue_unlink t rs w;
                  bounce w.reply;
                  drain ()
            in
            drain ();
            let locks = sorted_locks rs in
            let cids =
              List.sort_uniq Int.compare
                (List.map (fun (l : Types.lock) -> l.client) locks)
            in
            Int_tbl.remove t.resources rid;
            {
              mig_rid = rid;
              mig_next_sn = rs.next_sn;
              mig_locks = locks;
              mig_clients =
                List.filter_map
                  (fun c ->
                    match Int_tbl.find_opt t.clients c with
                    | Some ep -> Some (c, ep)
                    | None -> None)
                  cids;
            }
      in
      List.iter (fun (_req, reply) -> bounce reply) (List.rev !parked);
      repl_emit t (R_drop_resource { e_rid = rid });
      validate t;
      Some st

let adopt t (st : migration_state) =
  List.iter (fun (c, ep) -> register_client t c ep) st.mig_clients;
  reinstall t st.mig_locks;
  restore_sn_floor t st.mig_rid (st.mig_next_sn - 1)

let hottest_resource t =
  List.fold_left
    (fun acc (rid, rs) ->
      let q = Dllist.length rs.waiting in
      match acc with
      | Some (_, best) when best >= q -> acc
      | _ -> if q > 0 then Some (rid, q) else acc)
    None (sorted_resources t)

let inject_sn_reuse t ~every =
  if every <= 0 then invalid_arg (t.name ^ ": inject_sn_reuse: every <= 0");
  t.sn_reuse_every <- every

let granted_locks t rid =
  match Int_tbl.find_opt t.resources rid with
  | None -> []
  | Some rs -> sorted_locks rs

type waiter_view = {
  q_client : Types.client_id;
  q_mode : Mode.t;
  q_eff_mode : Mode.t;
  q_ranges : Ranges.t;
  q_enq_time : float;
}

let waiting_view t rid =
  match Int_tbl.find_opt t.resources rid with
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
        (Dllist.to_list rs.waiting)

let resource_ids t = Int_tbl.sorted_keys t.resources

let queue_length t rid =
  match Int_tbl.find_opt t.resources rid with
  | None -> 0
  | Some rs -> Dllist.length rs.waiting

let next_sn t rid = (rstate t rid).next_sn
let stats t = t.stats
let policy t = t.policy
let node t = t.node
let name t = t.name
let set_tracer t f = t.tracer <- Some f

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
let set_repl_hook t f = t.repl <- Some f

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
  | T_crash { t_dropped_waiters } ->
      Format.fprintf ppf "crash    lock table lost (%d queued waiter(s) \
                          dropped)" t_dropped_waiters

(* The settled-queue invariant: once a transition's passes are done,
   one more [pass] would change nothing.  A read-only walk with a fresh
   accumulator, through the helpers [visit_node] uses, finds no waiter
   it would grant, no conflicting GRANTED lock whose revoke is unsent,
   no unstamped [acks_time] whose conflicts are all CANCELING, and no
   [eff_mode] the conversion join would still raise.  A kept pass cache
   stands in for this walk's accumulator on the submit fast path, so
   each of its buckets must lie inside the walk's (or the walk
   saturates, blocking everything).  Inside, not equal: a visit
   computes its own set once, before its join raises [eff_mode], and
   a raised mode can conflict with more of the client's grants, so a
   later walk may merge a wider union for the same waiter. *)
let check_settled t rs =
  let blocked = Blocked.create () in
  let saturated = ref false in
  Dllist.iter
    (fun (w : waiter) ->
      if not (skips_visit t rs ~saturated w) then begin
        let own = own_locks t rs w in
        let eff = joined_mode w own in
        assert (Mode.equal eff w.eff_mode);
        let union_ranges = union_ranges w own in
        if
          (not !saturated)
          && not (Blocked.blocks blocked eff (union_ranges :> Interval.t list))
        then begin
          let conflicts = conflicts_of rs ~eff ~union_ranges own in
          assert (not (List.is_empty conflicts));
          List.iter
            (fun (g : lock) ->
              assert (g.state = Lcm.Canceling || g.revoke_sent))
            conflicts;
          assert (
            Option.is_some w.acks_time
            || List.exists (fun (g : lock) -> g.state = Lcm.Granted) conflicts)
        end;
        note_blocked ~blocked ~saturated eff union_ranges
      end)
    rs.waiting;
  match rs.pass_blocked with
  | Some cached when not !saturated ->
      assert (not rs.pass_saturated);
      Array.iteri
        (fun i m ->
          Extent_map.iter
            (fun r () -> assert (Extent_map.covered blocked.(i) r))
            m)
        cached
  | Some _ | None -> ()

(* The structural half of [check_invariants]: every index agrees with
   the state it indexes, and every queue is settled.  It holds after
   any sequence of control messages, even ones no client would send (a
   "downgrade" to a stronger mode, say), which the protocol half need
   not survive. *)
let check_indexes t =
  List.iter
    (fun (_, rs) ->
      Dllist.check_invariants rs.waiting;
      Interval_index.check_invariants rs.granted_idx;
      Interval_index.check_invariants rs.early_idx;
      (* The hash table and the two interval indexes must agree entry
         for entry: the trees partition the table, each lock sits in the
         tree its (mode, state) names, keyed by its current hull. *)
      assert (
        Int_tbl.length rs.granted
        = Interval_index.cardinal rs.granted_idx
          + Interval_index.cardinal rs.early_idx);
      let check_tree ~early idx =
        Interval_index.iter
          (fun hull id (g : lock) ->
            (match find_lock rs id with
            | Some g' -> assert (g' == g)
            | None -> assert false);
            assert (in_early_idx g = early);
            assert (Interval.equal hull g.hull))
          idx
      in
      check_tree ~early:false rs.granted_idx;
      check_tree ~early:true rs.early_idx;
      (* The waiting-queue indexes must be exactly a recomputation from
         the live queue: per-mode hull-lo multisets and the per-client
         waiter counts. *)
      let q_lo' = Array.make 4 Int_map.empty in
      let wbc' = Int_tbl.create 16 in
      Dllist.iter
        (fun (w : waiter) ->
          let rank = Blocked.mode_rank w.eff_mode in
          let lo = (Ranges.hull w.req.ranges).Interval.lo in
          q_lo'.(rank) <-
            Int_map.update lo
              (function None -> Some 1 | Some n -> Some (n + 1))
              q_lo'.(rank);
          let c = w.req.client in
          let n = match Int_tbl.find_opt wbc' c with Some n -> n | None -> 0 in
          Int_tbl.replace wbc' c (n + 1))
        rs.waiting;
      Array.iteri
        (fun rank m -> assert (Int_map.equal Int.equal m q_lo'.(rank)))
        rs.q_lo;
      assert (Int_tbl.length rs.waiting_by_client = Int_tbl.length wbc');
      Int_tbl.iter_sorted
        (fun c n -> assert (Int_tbl.find_opt rs.waiting_by_client c = Some n))
        wbc';
      (* ... and the grant counts per client, from the grant table, with
         the count of clients in both. *)
      let bc' = Int_tbl.create 16 in
      granted_fold
        (fun (g : lock) () ->
          let n =
            match Int_tbl.find_opt bc' g.client with Some n -> n | None -> 0
          in
          Int_tbl.replace bc' g.client (n + 1))
        rs ();
      assert (Int_tbl.length rs.by_client = Int_tbl.length bc');
      let both =
        Int_tbl.fold_sorted
          (fun c n acc ->
            assert (Int_tbl.find_opt rs.by_client c = Some n);
            if Int_tbl.mem wbc' c then acc + 1 else acc)
          bc' 0
      in
      assert (rs.convertible = both);
      check_settled t rs)
    (sorted_resources t);
  (* The live server-wide queue counter (the rebalancer's load signal)
     must equal a recomputation from the per-resource queues. *)
  let queued =
    List.fold_left
      (fun acc (_, rs) -> acc + Dllist.length rs.waiting)
      0 (sorted_resources t)
  in
  assert (queued = t.queued_total)

let check_invariants t =
  check_indexes t;
  List.iter
    (fun (_, rs) ->
      let granted = granted_fold (fun g acc -> g :: acc) rs [] in
      (* Write-lock SNs unique per resource. *)
      let sns =
        List.filter_map
          (fun (g : lock) -> if Mode.is_write g.mode then Some g.sn else None)
          granted
      in
      assert (List.length sns = List.length (List.sort_uniq Int.compare sns));
      List.iter (fun sn -> assert (sn < rs.next_sn)) sns;
      (* Overlapping granted locks must be compatible in at least one
         direction given their states.  Exact overlap implies hull
         overlap, so each grant's index candidates hold every partner it
         can overlap; the id order visits each unordered pair once. *)
      List.iter
        (fun (g : lock) ->
          let check _ _ (h : lock) =
            if h.id > g.id && Ranges.overlaps g.ranges h.ranges then
              assert (
                Lcm.compatible ~req:g.mode ~granted:h.mode ~state:h.state
                || Lcm.compatible ~req:h.mode ~granted:g.mode ~state:g.state)
          in
          Interval_index.iter_overlapping rs.granted_idx g.hull check;
          Interval_index.iter_overlapping rs.early_idx g.hull check)
        granted)
    (sorted_resources t)
