open Ccpfs_util
open Ccpfs

type inject = Sn_reuse | Drop_block

let inject_of_string = function
  | "sn-reuse" -> Some Sn_reuse
  | "drop-block" -> Some Drop_block
  | _ -> None

let inject_to_string = function
  | Sn_reuse -> "sn-reuse"
  | Drop_block -> "drop-block"

type outcome = {
  fingerprint : int64;
  ops : int;
  virtual_end : float;
  oracle : string;
}

let tolerance = 0.25

(* ------------------------------------------------------------------ *)
(* Simulated cases                                                     *)
(* ------------------------------------------------------------------ *)

let config_of (s : Case.shape) =
  let page = Config.default.page in
  {
    Config.default with
    dirty_min = s.dirty_min_blocks * page;
    dirty_max = s.dirty_max_blocks * page;
    extent_cache_limit = s.extent_cache_limit;
    extent_log = true;
    (* The case's replication draw wins, and CCPFS_REPL (folded into
       Config.default.replication) forces backups onto cases that drew
       0, so `CCPFS_REPL=1 ccpfs_run fuzz` sweeps the corpus replicated. *)
    replication = (if s.repl > 0 then s.repl else Config.default.replication);
  }

let install_inject cl = function
  | None -> ()
  | Some Sn_reuse ->
      for i = 0 to Cluster.n_servers cl - 1 do
        Seqdlm.Lock_server.inject_sn_reuse (Cluster.lock_server cl i) ~every:3
      done
  | Some Drop_block ->
      for i = 0 to Cluster.n_servers cl - 1 do
        Data_server.inject_drop_block (Cluster.data_server cl i) ~every:5
      done

(* §IV-C2: after recovery, freshly issued SNs must stay above everything
   the crashed server ever issued — above both the extent log's high
   water mark and every grant the clients still cache.  With the sharded
   namespace the floor lives wherever the shard map currently homes each
   resource's locks, while the extent log stays on the static data
   owner — so the assertion follows both routes instead of assuming the
   crashed server holds everything. *)
let assert_sn_floor cl srv =
  let ls = Cluster.lock_server cl srv in
  let ds = Cluster.data_server cl srv in
  let rids =
    List.sort_uniq compare
      (Seqdlm.Lock_server.resource_ids ls @ Data_server.stripe_rids ds)
  in
  List.iter
    (fun rid ->
      let owner = Cluster.server_of_rid cl rid in
      let ls_owner = Cluster.lock_server cl owner in
      let next = Seqdlm.Lock_server.next_sn ls_owner rid in
      let home =
        Cluster.data_server cl (Shard_map.data_owner (Cluster.shard_map cl) rid)
      in
      let logged = Option.value (Data_server.max_logged_sn home rid) ~default:0 in
      let reinstalled =
        (* Write grants only: a read grant's [sn] is a snapshot of
           [next_sn] taken without consuming it, so a fresh post-recovery
           read legitimately carries sn = next_sn. *)
        List.fold_left
          (fun m (v : Seqdlm.Types.lock) ->
            if Seqdlm.Mode.is_write v.mode then max m v.sn else m)
          0
          (Seqdlm.Lock_server.granted_locks ls_owner rid)
      in
      if next <= max logged reinstalled then
        Check.Violation.fail ~inv:"recovery-sn-floor"
          "server %d (owner %d) rid %d: next_sn %d not above max recovered SN \
           (extent log %d, reinstalled grants %d)"
          srv owner rid next logged reinstalled)
    rids

let run_op shadow page c f (op : Segment.op) =
  match op with
  | Segment.Write { block; blocks } ->
      Client.write c f ~off:(block * page) ~len:(blocks * page)
  | Segment.Read { block; blocks } ->
      ignore (Client.read c f ~off:(block * page) ~len:(blocks * page))
  | Segment.Append { blocks } -> ignore (Client.append c f ~len:(blocks * page))
  | Segment.Truncate { blocks } ->
      Client.truncate c f ~size:(blocks * page);
      (* Journaled after completion: the whole-file PW serializes the
         truncate against every conflicting write (no early grant for
         PW), so its completion position in the journal is its
         serialization position. *)
      Shadow.record_truncate shadow ~size:(blocks * page)

(* Mid-run migration (DESIGN.md §15): rehome a stripe's lock namespace
   while the phase traffic runs.  A regular process; it sleeps its
   offset, then skips if the shared file does not exist yet (nothing
   worth moving) or either end of the move is not Up, and otherwise runs
   the epoch-fenced coordinator — whose result may still be None (source
   crashed mid-drain, target went down, or a force-sync pins the
   resource). *)
let spawn_migration cl ha (s : Case.shape) file i (m : Segment.migration) =
  let eng = Cluster.engine cl in
  Dessim.Engine.spawn eng ~name:(Printf.sprintf "fuzz-mig-%d" i) (fun () ->
      Dessim.Engine.sleep eng m.mg_after;
      match !file with
      | None -> ()
      | Some f ->
          let rid =
            Layout.rid ~fid:(Client.fid f) ~stripe:(m.mg_stripe mod s.stripes)
          in
          let dst = m.mg_dst mod s.n_servers in
          let src = Cluster.server_of_rid cl rid in
          let up i =
            match ha with
            | None -> true
            | Some ha ->
                Ha.Membership.state (Ha.Failover.membership ha) i
                = Ha.Membership.Up
          in
          if up src && up dst then ignore (Cluster.migrate_resource cl ~rid ~dst))

(* Message faults on one server's client-facing endpoints. *)
let set_faults cl srv ~loss ~dup ~rng =
  let ls = Cluster.lock_server cl srv in
  Netsim.Rpc.set_fault (Seqdlm.Lock_server.lock_endpoint ls) ~loss ~dup ~rng;
  Netsim.Rpc.set_fault (Seqdlm.Lock_server.ctl_endpoint ls) ~loss ~dup ~rng;
  Netsim.Rpc.set_fault
    (Data_server.endpoint (Cluster.data_server cl srv))
    ~loss ~dup ~rng

let clear_faults cl srv =
  let ls = Cluster.lock_server cl srv in
  Netsim.Rpc.clear_fault (Seqdlm.Lock_server.lock_endpoint ls);
  Netsim.Rpc.clear_fault (Seqdlm.Lock_server.ctl_endpoint ls);
  Netsim.Rpc.clear_fault (Data_server.endpoint (Cluster.data_server cl srv))

(* Lossy-partition window: degrade one server's client-facing endpoints
   for a while, then heal back to the case's baseline fault rates.  The
   heartbeat and grant-log shipping endpoints are never faulted —
   partitions model client/server link trouble, not a detector-visible
   outage or replica divergence.  A regular process, so the engine stays
   alive through the heal. *)
let spawn_partition cl (s : Case.shape) prand i (p : Segment.partition) =
  let eng = Cluster.engine cl in
  Dessim.Engine.spawn eng ~name:(Printf.sprintf "fuzz-part-%d" i) (fun () ->
      Dessim.Engine.sleep eng p.pt_at;
      let srv = p.pt_server mod s.n_servers in
      set_faults cl srv ~loss:p.pt_loss ~dup:p.pt_dup ~rng:prand;
      Dessim.Engine.sleep eng p.pt_dur;
      if s.loss > 0. || s.dup > 0. then
        set_faults cl srv ~loss:s.loss ~dup:s.dup ~rng:prand
      else clear_faults cl srv)

(* A mid-phase crash: a regular process that also serves as the phase's
   liveness barrier — Engine.run cannot return until detection and
   recovery have completed.  The barrier watches the server's own
   completed-failover count, not membership (between the crash and the
   detector's declaration the membership table still reads Up) and not
   the total (with a double failure two recoveries land concurrently).
   [Failover.crash] no-ops if the detector's STONITH got there first, in
   which case its declaration already drives the awaited recovery. *)
let spawn_crash eng ha ~name ~after srv =
  let tick = Ha.Detector.period (Ha.Failover.detector ha) in
  let recoveries () =
    List.length
      (List.filter
         (fun r -> r.Ha.Failover.f_server = srv)
         (Ha.Failover.records ha))
  in
  Dessim.Engine.spawn eng ~name:(Printf.sprintf "%s-%d" name srv) (fun () ->
      Dessim.Engine.sleep eng after;
      let before = recoveries () in
      ignore (Ha.Failover.crash ha srv);
      while recoveries () <= before do
        Dessim.Engine.sleep eng tick
      done)

let run_phase cl ha (s : Case.shape) ~layout ~shadow file dbl
    (ph : Segment.phase) =
  let page = Config.default.page in
  let spawned = ref false in
  Array.iteri
    (fun i ops ->
      if ops <> [] then begin
        spawned := true;
        Cluster.spawn_client cl i ~name:(Printf.sprintf "fuzz-c%d" i) (fun c ->
            let f = Client.open_file c ~create:true ~layout "/fuzz" in
            if !file = None then file := Some f;
            List.iter (run_op shadow page c f) ops)
      end)
    ph.ops;
  (* The second victim of a double failure: a fixed function of the
     draw, bumped past the first victim so the two crashes never target
     the same server. *)
  let dbl_target =
    match (ph.crash_mid, dbl) with
    | Some (srv, _), Some (d : Segment.double_failure) when s.n_servers > 1 ->
        let first = srv mod s.n_servers in
        let k = d.df_server mod s.n_servers in
        Some ((if k = first then (k + 1) mod s.n_servers else k), d.df_after)
    | _ -> None
  in
  (match (ph.crash_mid, ha) with
  | Some (srv, delay), Some ha ->
      let eng = Cluster.engine cl in
      spawn_crash eng ha ~name:"fuzz-crash" ~after:delay (srv mod s.n_servers);
      Option.iter
        (fun (srv2, extra) ->
          spawn_crash eng ha ~name:"fuzz-crash2" ~after:(delay +. extra) srv2)
        dbl_target
  | _ -> ());
  if !spawned || Option.is_some ph.crash_mid then Check.Sanitize.run_cluster cl;
  Option.iter
    (fun (srv, _) -> assert_sn_floor cl (srv mod s.n_servers))
    ph.crash_mid;
  Option.iter (fun (srv2, _) -> assert_sn_floor cl srv2) dbl_target;
  Option.iter
    (fun srv ->
      let srv = srv mod s.n_servers in
      Cluster.crash_and_recover_server cl srv;
      assert_sn_floor cl srv)
    ph.crash_server

(* The open-loop segment: a scheduled-arrival stream of page writes
   through Load.Driver, against the same shared file so the shadow
   oracle keeps covering it.  The conservation invariant — every
   scheduled arrival either completes or is counted shed — is checked
   as a fuzz invariant in its own right. *)
let run_load cl (case : Case.t) (s : Case.shape) ~layout file (l : Segment.load)
    =
  let page = Config.default.page in
  let process =
    match l.l_process mod 3 with
    | 0 -> Load.Arrivals.Constant l.l_rate
    | 1 -> Load.Arrivals.Poisson l.l_rate
    | _ -> Load.Arrivals.bursty ~rate:l.l_rate
  in
  let spec =
    Load.Driver.
      {
        process;
        seed = case.seed lxor 0x10ad;
        requests = l.l_requests;
        max_in_flight = Stdlib.max 1 l.l_cap;
        churn =
          List.map
            (fun (ch : Segment.churn) ->
              Load.Driver.
                {
                  ch_at = ch.ch_at;
                  ch_client = ch.ch_client mod s.n_clients;
                  ch_up = ch.ch_up;
                })
            l.l_churn;
        start_at = Cluster.now cl;
      }
  in
  let h =
    Load.Driver.launch cl spec
      ~prepare:(fun c ->
        let f = Client.open_file c ~create:true ~layout "/fuzz" in
        if !file = None then file := Some f;
        (c, f))
      ~request:(fun (c, f) k ->
        let block = k mod Gen.max_block in
        Client.write c f ~off:(block * page) ~len:page;
        page)
  in
  Check.Sanitize.run_cluster cl;
  let r = Load.Driver.result h in
  if
    r.r_completed + r.r_shed <> r.r_arrivals || r.r_arrivals <> l.l_requests
  then
    Check.Violation.fail ~inv:"load-conservation"
      "open-loop segment lost arrivals: %d completed + %d shed vs %d arrivals \
       (%d scheduled)"
      r.r_completed r.r_shed r.r_arrivals l.l_requests

(* One full scenario execution on a fresh world; returns the cluster for
   fingerprinting and metrics. *)
let sim_pass ?inject (case : Case.t) (sim : Case.sim) =
  let s = sim.shape in
  let page = Config.default.page in
  let online = Case.online sim in
  let reliability =
    if online then Some (Netsim.Rpc.reliability_for case.params) else None
  in
  let cl =
    Cluster.create ~params:case.params ~config:(config_of s)
      ~policy:(Case.policy_of s) ?reliability ~n_servers:s.n_servers
      ~n_clients:s.n_clients ()
  in
  let eng = Cluster.engine cl in
  let ha = if online then Some (Ha.Failover.install cl) else None in
  if s.loss > 0. || s.dup > 0. then begin
    (* One stream for every loss/dup draw; the draw order is the
       (deterministic) event order, so both determinism passes see the
       same fault schedule. *)
    let frng = Det_random.create ~seed:(case.seed lxor 0x3f41) in
    let frand () = Det_random.float frng 1. in
    for i = 0 to s.n_servers - 1 do
      set_faults cl i ~loss:s.loss ~dup:s.dup ~rng:frand
    done
  end;
  (* Legal nondeterminism, itself a deterministic function of the seed. *)
  if s.tie_random then
    Dessim.Engine.seed_nondeterminism ~max_jitter:s.jitter ~seed:case.seed eng
  else if s.jitter > 0. then begin
    let jr = Det_random.create ~seed:(case.seed lxor 0x6a17) in
    Dessim.Engine.set_event_jitter eng (fun () ->
        Det_random.float jr s.jitter)
  end;
  Check.Sanitize.attach_cluster cl;
  install_inject cl inject;
  let layout =
    Layout.v ~stripe_size:(s.stripe_blocks * page) ~stripe_count:s.stripes ()
  in
  let shadow = Shadow.create ~layout in
  for i = 0 to s.n_clients - 1 do
    let cache = Client.cache (Cluster.client cl i) in
    let writer = Client_cache.client_id cache in
    Client_cache.set_write_observer cache (fun ~rid ~range ~sn ~op ->
        Shadow.record_write shadow ~writer ~rid ~range ~sn ~op)
  done;
  let file = ref None in
  (* Every partition window draws from one stream. *)
  let prng = Det_random.create ~seed:(case.seed lxor 0x9a27) in
  let prand () = Det_random.float prng 1. in
  let dbl = ref None in
  (* Background segments are spawned, a double failure arms the phases
     after it, phases and load run to quiescence — all in list order. *)
  List.iter
    (fun (i, (seg : Segment.t)) ->
      match seg with
      | Migration m -> spawn_migration cl ha s file i m
      | Partition p -> spawn_partition cl s prand i p
      | Double_failure d -> dbl := Some d
      | Phase ph -> run_phase cl ha s ~layout ~shadow file !dbl ph
      | Load l -> run_load cl case s ~layout file l)
    (Segment.numbered sim.segments);
  (match !file with
  | Some f ->
      Cluster.fsync_all cl;
      Cluster.check_invariants cl;
      Check.Sanitize.check_cluster cl;
      Shadow.check_against shadow cl f
  | None -> ());
  cl

let total_ops cl =
  let n = ref 0 in
  for i = 0 to Cluster.n_clients cl - 1 do
    n := !n + Client.ops (Cluster.client cl i)
  done;
  !n

let run_sim ?inject (case : Case.t) (s : Case.sim) =
  let last = ref (0, 0.) in
  let fp =
    Check.Determinism.check ~name:(Printf.sprintf "fuzz seed %d" case.seed)
      (fun () ->
        let cl = sim_pass ?inject case s in
        last := (total_ops cl, Cluster.now cl);
        Cluster.engine cl)
  in
  let ops, virtual_end = !last in
  { fingerprint = fp; ops; virtual_end; oracle = "shadow" }

(* ------------------------------------------------------------------ *)
(* Analytic cases                                                      *)
(* ------------------------------------------------------------------ *)

(* The §II-C scenario, mirrored from the exp_model validation: N clients
   issue one fully-conflicting PW write of D bytes each under the basic
   DLM; the run ends when the last write returns from the cache, i.e.
   after the (N-1) serialized revocation+flush rounds Eq. (1) counts. *)
let analytic_pass (case : Case.t) (a : Case.analytic) =
  let config =
    Config.with_dirty_limits ~dirty_min:(64 * Units.mib)
      ~dirty_max:(256 * Units.mib) Config.default
  in
  let cl =
    Cluster.create ~params:case.params ~config ~policy:Seqdlm.Policy.dlm_basic
      ~n_servers:1 ~n_clients:a.a_clients ()
  in
  Check.Sanitize.attach_cluster cl;
  let layout = Layout.v ~stripe_size:(4 * Units.mib) ~stripe_count:1 () in
  for i = 0 to a.a_clients - 1 do
    Cluster.spawn_client cl i ~name:(Printf.sprintf "an-c%d" i) (fun c ->
        let f = Client.open_file c ~create:true ~layout "/conflict" in
        Client.write ~mode:Seqdlm.Mode.PW c f ~off:0 ~len:a.a_bytes)
  done;
  Check.Sanitize.run_cluster cl;
  cl

let run_analytic (case : Case.t) (a : Case.analytic) =
  let finish = ref 0. in
  let fp =
    Check.Determinism.check ~name:(Printf.sprintf "fuzz seed %d" case.seed)
      (fun () ->
        let cl = analytic_pass case a in
        finish := Cluster.now cl;
        Cluster.engine cl)
  in
  let n = a.a_clients and d = a.a_bytes in
  let simulated = float_of_int (n * d) /. !finish in
  let model = Analytic.Model.bandwidth_exact case.params ~n ~d in
  let ratio = simulated /. model in
  if Float.abs (ratio -. 1.) > tolerance then
    Check.Violation.fail ~inv:"analytic-model"
      "Eq. (1) disagrees with the simulator: %.3e B/s simulated vs %.3e B/s \
       model (ratio %.3f, n=%d, D=%d)"
      simulated model ratio n d;
  { fingerprint = fp; ops = n; virtual_end = !finish; oracle = "analytic" }

(* ------------------------------------------------------------------ *)

let run ?inject (case : Case.t) =
  match case.kind with
  | Case.Sim s -> run_sim ?inject case s
  | Case.Analytic a -> run_analytic case a

let describe_exn = function
  | Check.Violation.Violation v ->
      "invariant violation: " ^ Check.Violation.to_string v
  | Shadow.Divergence s -> "shadow-file divergence: " ^ s
  | Check.Deadlock.Deadlock_found r -> "deadlock: " ^ Check.Deadlock.to_string r
  | e -> Printexc.to_string e

let catch ?inject case =
  match run ?inject case with
  | o -> Ok o
  | exception e ->
      (* Debug escape hatch: let the raw exception (and with
         OCAMLRUNPARAM=b its backtrace) propagate instead of being
         folded into a failure report. *)
      if Sys.getenv_opt "CCPFS_FUZZ_RERAISE" <> None then
        Printexc.raise_with_backtrace e (Printexc.get_raw_backtrace ());
      Error (describe_exn e)
