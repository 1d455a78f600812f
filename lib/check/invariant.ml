open Ccpfs_util
open Seqdlm
open Ccpfs

let pp_ranges ppf ranges = Format.fprintf ppf "[%a]" Ranges.pp ranges

let pp_lock ppf (v : Types.lock) =
  Format.fprintf ppf "#%d c%d %s/%s sn=%d %a" v.lock_id v.client
    (Mode.to_string v.mode)
    (Lcm.state_to_string v.state)
    v.sn pp_ranges v.ranges

(* No two granted locks may overlap unless Table II allows their
   coexistence in at least one direction — the only asymmetric cells are
   the NBW/BW-over-canceling-NBW early grants, which is exactly the
   documented exception. *)
let check_compat srv rid =
  let locks = Lock_server.granted_locks srv rid in
  let rec pairs = function
    | [] -> ()
    | (g : Types.lock) :: rest ->
        List.iter
          (fun (h : Types.lock) ->
            if Ranges.overlaps g.ranges h.ranges then
              if
                not
                  (Lcm_oracle.compatible ~req:g.mode ~granted:h.mode
                     ~state:h.state
                  || Lcm_oracle.compatible ~req:h.mode ~granted:g.mode
                       ~state:g.state)
              then
                Violation.fail ~inv:"lcm-compat"
                  "%s r%d holds conflicting overlapping grants %a and %a"
                  (Lock_server.name srv) rid pp_lock g pp_lock h)
          rest;
        pairs rest
  in
  pairs locks

(* Write grants consume sequence numbers: per resource they must be
   pairwise distinct and below the sequencer's next value (§III-C). *)
let check_sn srv rid =
  let next = Lock_server.next_sn srv rid in
  let writes =
    List.filter
      (fun (v : Types.lock) -> Mode.is_write v.mode)
      (Lock_server.granted_locks srv rid)
  in
  List.iter
    (fun (v : Types.lock) ->
      if v.sn >= next then
        Violation.fail ~inv:"sn-rules"
          "%s r%d write grant %a carries sn >= next_sn %d"
          (Lock_server.name srv) rid pp_lock v next)
    writes;
  let sns = List.map (fun (v : Types.lock) -> v.sn) writes in
  if List.length sns <> List.length (List.sort_uniq Int.compare sns) then
    Violation.fail ~inv:"sn-rules" "%s r%d has duplicate write-grant SNs: %a"
      (Lock_server.name srv) rid
      (Format.pp_print_list ~pp_sep:Format.pp_print_space pp_lock)
      writes

(* The per-resource queue is FIFO: enqueue timestamps must be
   non-decreasing from head to tail (fairness, §II-A). *)
let check_fifo srv rid =
  let rec walk = function
    | (a : Lock_server.waiter_view) :: (b :: _ as rest) ->
        if a.q_enq_time > b.q_enq_time then
          Violation.fail ~inv:"fifo-queue"
            "%s r%d queue out of order: c%d (t=%g) before c%d (t=%g)"
            (Lock_server.name srv) rid a.q_client a.q_enq_time b.q_client
            b.q_enq_time;
        walk rest
    | [] | [ _ ] -> ()
  in
  walk (Lock_server.waiting_view srv rid)

let check_server srv =
  List.iter
    (fun rid ->
      check_compat srv rid;
      check_sn srv rid;
      check_fifo srv rid)
    (Lock_server.resource_ids srv)

(* Strict SN monotonicity, observed on the live grant stream rather than
   reconstructed from state: each write grant on a resource must carry a
   strictly larger SN than the previous one (the sequencer never reuses
   or reorders, §III-C). *)
let monitor_sn srv =
  let last : (Types.resource_id, int) Hashtbl.t = Hashtbl.create 16 in
  Lock_server.add_tracer srv (fun _now ev ->
      match ev with
      | Lock_server.T_grant (g, _) when Mode.is_write g.mode -> (
          match Hashtbl.find_opt last g.rid with
          | Some prev when g.sn <= prev ->
              Violation.fail ~inv:"sn-monotone"
                "%s r%d issued write sn %d after already issuing %d"
                (Lock_server.name srv) g.rid g.sn prev
          | _ -> Hashtbl.replace last g.rid g.sn)
      | Lock_server.T_crash _ ->
          (* An online crash legitimately forgets SNs that no one can
             ever use: a write grant lost in flight is invisible to the
             recovery gather, and the epoch fence guarantees its SN
             orders no data.  Monotonicity restarts from the recovered
             floor — which the recovery-sn-floor invariant (extent log +
             reinstalled write grants) checks independently. *)
          Hashtbl.reset last
      | _ -> ())

(* A client may hold dirty data only under the protection of a cached
   write-capable lock covering it ("data can be cached in clients under
   the protection of the cached locks", §I; flushing precedes release in
   the cancel path, §III-D2). *)
let check_client_rid ~lock_client ~cache rid =
  let dirty =
    match
      List.find_opt (fun (r, _) -> r = rid) (Client_cache.dirty_view cache)
    with
    | Some (_, extents) -> extents
    | None -> []
  in
  if dirty <> [] then begin
    let protection =
      Lock_client.locks_for_recovery lock_client ~owned:(fun _ -> true)
      |> List.filter_map (fun (l : Types.lock) ->
             if l.rid = rid && Mode.can_write l.mode then Some l.ranges
             else None)
    in
    let covered =
      match protection with
      | [] -> fun _ -> false
      | p :: rest -> Ranges.covers (List.fold_left Ranges.union p rest)
    in
    List.iter
      (fun (iv, (_ : Content.tag)) ->
        if not (covered (Ranges.single iv)) then
          Violation.fail ~inv:"cache-under-lock"
            "client %d holds dirty extent %a of r%d outside its write locks \
             %a"
            (Client_cache.client_id cache)
            Interval.pp iv rid (Format.pp_print_list pp_ranges) protection)
      dirty
  end

let check_client ~lock_client ~cache =
  List.iter
    (fun (rid, _) -> check_client_rid ~lock_client ~cache rid)
    (Client_cache.dirty_view cache)

(* Replication invariants (DESIGN.md §16), swept over one group:

   [repl-primary-unique]: no backup may sit in a NEWER regime than its
   primary's log.  Regimes only advance through an elected, fenced
   recovery that resets the primary's log first, so a backup ahead of
   its primary means two primaries shipped under different epochs.

   [repl-log-prefix]: a backup that follows the primary's current regime
   holds an exact prefix of the primary's log — same events under the
   same lsns — and never commits past the primary's tail.  (Backups
   still in an older regime are merely lagging: their first new-regime
   Append supersedes their copy wholesale.) *)
let check_repl_group (g : Repl.Group.t) =
  let plog = Repl.Group.log g in
  let pepoch = Repl.Grant_log.epoch plog in
  let pname = Repl.Group.name g in
  Array.iter
    (fun b ->
      let bid = Repl.Replica.id b in
      let blog = Repl.Replica.log b in
      let bepoch = Repl.Grant_log.epoch blog in
      if bepoch > pepoch then
        Violation.fail ~inv:"repl-primary-unique"
          "%s backup %d follows regime %d ahead of its primary's %d" pname
          bid bepoch pepoch
      else if bepoch = pepoch then begin
        if Repl.Grant_log.last_lsn blog > Repl.Grant_log.last_lsn plog then
          Violation.fail ~inv:"repl-log-prefix"
            "%s backup %d committed lsn %d past the primary's tail %d" pname
            bid
            (Repl.Grant_log.last_lsn blog)
            (Repl.Grant_log.last_lsn plog);
        let rec walk (p : Repl.Grant_log.entry list)
            (bk : Repl.Grant_log.entry list) =
          match (p, bk) with
          | _, [] -> ()
          | pe :: p', be :: b' ->
              (* Structural equality is safe here: repl events carry only
                 ints and immutable variants, no floats or closures. *)
              if pe.Repl.Grant_log.lsn <> be.Repl.Grant_log.lsn
                 || pe.Repl.Grant_log.ev <> be.Repl.Grant_log.ev
              then
                Violation.fail ~inv:"repl-log-prefix"
                  "%s backup %d diverges from the primary at lsn %d" pname
                  bid be.Repl.Grant_log.lsn;
              walk p' b'
          | [], _ :: _ -> () (* unreachable: tail check above *)
        in
        walk (Repl.Grant_log.entries plog) (Repl.Grant_log.entries blog)
      end)
    (Repl.Group.backups g)
