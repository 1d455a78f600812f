(* Per-layer metrics of one repetition.

   [accessors] reads the public stats of every layer after a run; it
   costs nothing during the run, so it is taken from every repetition.
   The traced repetition additionally attaches a trace sink, enables the
   metrics registry and records two input streams for host-time probes:

   - each lock server's request/control stream ([Lock_server.add_tracer]),
     replayed into a fresh server through [submit]/[control] to time the
     server's own work per protocol step;
   - every client-cache insert ([Client_cache.set_write_observer]),
     replayed through [Extent_map.merge] with the data server's
     (SN, op) rule to time one merge.

   A replay that does not reproduce the recorded grants, or the device
   contents, is a failed check: no number is reported from it. *)

open Ccpfs_util
open Ccpfs
module Ls = Seqdlm.Lock_server

let host_now = Workload.host_now

(* ------------------------------------------------------------------ *)
(* Public accessors                                                     *)
(* ------------------------------------------------------------------ *)

let fold_servers cl f init =
  let acc = ref init in
  for i = 0 to Cluster.n_servers cl - 1 do
    acc := f !acc i
  done;
  !acc

(* Every simulated machine: data servers, clients and replicas. *)
let nodes cl =
  List.init (Cluster.n_servers cl) (Cluster.server_node cl)
  @ List.init (Cluster.n_clients cl) (fun i -> Client.node (Cluster.client cl i))
  @ List.concat
      (List.init (Cluster.n_servers cl) (fun i ->
           match Cluster.repl_group cl i with
           | None -> []
           | Some g ->
               Array.to_list (Array.map Repl.Replica.node (Repl.Group.backups g))))

let ratio a b = if b = 0. then 0. else a /. b
let fi = float_of_int

let accessors (r : Workload.rep) =
  let cl = r.cl in
  let now = Cluster.now cl in
  let nodes = nodes cl in
  let sum_nodes f = fi (List.fold_left (fun a n -> a + f n) 0 nodes) in
  let max_busy res =
    fold_servers cl
      (fun a i ->
        Float.max a (Dessim.Resource.busy_seconds (res (Cluster.server_node cl i))))
      0.
  in
  let lc f = fi (Workload.sum_clients cl (fun c -> f (Client.lock_client c))) in
  let cc f = fi (Workload.sum_clients cl (fun c -> f (Client.cache c))) in
  let ds f =
    fi (fold_servers cl (fun a i -> a + f (Data_server.stats (Cluster.data_server cl i))) 0)
  in
  let ls = Cluster.sum_lock_stats cl in
  let client_bytes = fi (Cluster.total_bytes_written cl) in
  let load f = match r.load with Some l -> f l | None -> 0. in
  [
    ("engine.events", fi r.sim.events);
    ( "rpc.messages",
      sum_nodes Netsim.Node.rpc_count
      +. fi (Netsim.Rpc.calls (Meta_server.endpoint (Cluster.meta cl))) );
    ("rpc.net_bytes", sum_nodes Netsim.Node.net_bytes_in);
    ("srv_ops.sim_busy_frac", ratio (max_busy Netsim.Node.ops) now);
    ("lock_client.acquires", lc Seqdlm.Lock_client.acquires);
    ( "lock_client.cache_hit_frac",
      ratio (lc Seqdlm.Lock_client.cache_hits) (lc Seqdlm.Lock_client.acquires) );
    ("lock_client.cached_locks", lc Seqdlm.Lock_client.cached_locks);
    ("lock_client.cancels", lc Seqdlm.Lock_client.cancels);
    ("lock_client.locking_s", Cluster.total_locking_seconds cl);
    ("lock_client.stale_bounces", fi (Cluster.total_stale_bounces cl));
    ("lock_client.retries", fi (Cluster.total_retries cl));
    ("lock_server.grants", fi ls.grants);
    ("lock_server.early_grants", fi ls.early_grants);
    ("lock_server.early_revocations", fi ls.early_revocations);
    ("lock_server.revokes_sent", fi ls.revokes_sent);
    ("lock_server.upgrades", fi ls.upgrades);
    ("lock_server.downgrades", fi ls.downgrades);
    ("lock_server.expansions", fi ls.expansions);
    ("lock_server.max_queue", fi ls.max_queue);
    ("lock_server.revocation_wait_s", ls.revocation_wait);
    ("lock_server.release_wait_s", ls.release_wait);
    ("client.ops", fi r.sim.ops);
    ("client_cache.write_s", Cluster.total_cache_seconds cl);
    ("client_cache.flush_rpcs", cc Client_cache.flush_rpcs);
    ("client_cache.bytes_flushed", cc Client_cache.bytes_flushed);
    ( "client_cache.dirty_peak_bytes",
      fi
        (Workload.fold_clients cl
           (fun a c -> max a (Client_cache.dirty_peak (Client.cache c)))
           0) );
    ( "client_cache.read_hit_frac",
      let hits = cc Client_cache.read_cache_hits in
      ratio hits (hits +. cc Client_cache.read_cache_misses) );
    ("data_server.flush_rpcs", ds (fun s -> s.flush_rpcs));
    ("data_server.blocks_in", ds (fun s -> s.blocks_in));
    ("data_server.bytes_written", ds (fun s -> s.bytes_written));
    ( "data_server.discard_frac",
      ratio (ds (fun s -> s.bytes_discarded)) (ds (fun s -> s.bytes_received)) );
    ("data_server.reads", ds (fun s -> s.reads));
    ( "data_server.cache_peak",
      fi
        (fold_servers cl
           (fun a i -> max a (Data_server.stats (Cluster.data_server cl i)).cache_peak)
           0) );
    ("data_server.cleanup_runs", ds (fun s -> s.cleanup_runs));
    ("data_server.force_syncs", ds (fun s -> s.force_syncs));
    ("data_server.write_amp", ratio (fi (Cluster.total_disk_bytes cl)) client_bytes);
    ("disk.sim_busy_frac", ratio (max_busy Netsim.Node.disk) now);
    ( "repl.max_lag_end",
      fi
        (fold_servers cl
           (fun a i ->
             match Cluster.repl_group cl i with
             | Some g -> max a (Repl.Group.max_lag g)
             | None -> a)
           0) );
    ("load.arrivals", load (fun l -> fi l.r_arrivals));
    ("load.completed", load (fun l -> fi l.r_completed));
    ("load.shed", load (fun l -> fi l.r_shed));
    ("load.achieved_rps", load (fun l -> l.r_achieved_rate));
  ]

(* ------------------------------------------------------------------ *)
(* The traced repetition                                                *)
(* ------------------------------------------------------------------ *)

type insert = {
  writer : int;
  rid : int;
  range : Interval.t;
  sn : int;
  op : int;
}

type capture = {
  sink : Obs.Trace.sink;
  mutable steps : Ls.trace_event list array;  (** per server, newest first *)
  mutable inserts : insert list;  (** newest first *)
}

let capture () = { sink = Obs.Trace.make (); steps = [||]; inserts = [] }

let instrument cap cl =
  let eng = Cluster.engine cl in
  Dessim.Engine.set_trace_sink eng cap.sink;
  Obs.Metrics.enable (Dessim.Engine.metrics eng);
  cap.steps <- Array.make (Cluster.n_servers cl) [];
  for i = 0 to Cluster.n_servers cl - 1 do
    Ls.add_tracer (Cluster.lock_server cl i) (fun _ ev ->
        match ev with
        | Ls.T_request _ | Ls.T_grant _ | Ls.T_ack _ | Ls.T_release _
        | Ls.T_downgrade _ ->
            cap.steps.(i) <- ev :: cap.steps.(i)
        | Ls.T_revoke _ | Ls.T_crash _ -> ())
  done;
  for i = 0 to Cluster.n_clients cl - 1 do
    Client_cache.set_write_observer
      (Client.cache (Cluster.client cl i))
      (fun ~rid ~range ~sn ~op ->
        cap.inserts <- { writer = i; rid; range; sn; op } :: cap.inserts)
  done

(* Self and total simulated time of the spans the layers emit.  Spans
   nest per simulated process (tid); a span's self time is its duration
   minus that of its direct children. *)
type span_totals = {
  mutable client_self : float;  (** client.* minus nested spans *)
  mutable client_calls : float;  (** call:* directly under a client.* span *)
  mutable flush : float;  (** cache.flush *)
  mutable ds : float;  (** ds.* handler spans *)
}

let starts_with p s = String.starts_with ~prefix:p s

let span_totals sink =
  let t = { client_self = 0.; client_calls = 0.; flush = 0.; ds = 0. } in
  let stacks = Hashtbl.create 1024 in
  List.iter
    (fun (ev : Obs.Trace.ev) ->
      let stack = Option.value (Hashtbl.find_opt stacks ev.tid) ~default:[] in
      match (ev.ph, stack) with
      | 'B', _ -> Hashtbl.replace stacks ev.tid ((ev.name, ev.ts, ref 0.) :: stack)
      | 'E', (name, start, children) :: rest ->
          Hashtbl.replace stacks ev.tid rest;
          let dur = ev.ts -. start in
          let parent =
            match rest with
            | (pname, _, pchildren) :: _ ->
                pchildren := !pchildren +. dur;
                pname
            | [] -> ""
          in
          if starts_with "client." name then
            t.client_self <- t.client_self +. dur -. !children
          else if starts_with "call:" name && starts_with "client." parent then
            t.client_calls <- t.client_calls +. dur
          else if String.equal name "cache.flush" then t.flush <- t.flush +. dur
          else if starts_with "ds." name then t.ds <- t.ds +. dur
      | _ -> ())
    (Obs.Trace.events sink);
  t

type grant_key = int * int * int * int  (* rid, lock id, sn, client *)

let key (g : Seqdlm.Types.grant) : grant_key = (g.rid, g.lock_id, g.sn, g.client)

(* Feed one server's recorded stream into a fresh server; the engine
   never runs, so revocation callbacks stay queued and cost only their
   enqueue.  Returns the host seconds spent and the grants issued. *)
let replay_lock_server ~policy steps =
  let params = Netsim.Params.default in
  let eng = Dessim.Engine.create () in
  let node = Netsim.Node.create eng params ~name:"replay" () in
  let srv = Ls.create eng params ~node ~name:"replay" ~policy in
  let seen = Hashtbl.create 64 in
  List.iter
    (function
      | Ls.T_request (r : Seqdlm.Types.request) when not (Hashtbl.mem seen r.client)
        ->
          Hashtbl.add seen r.client ();
          Ls.register_client srv r.client
            (Netsim.Rpc.endpoint eng params ~node
               ~name:(Printf.sprintf "c%d.cb" r.client)
               ~handler:(fun _ ~reply -> reply ()))
      | _ -> ())
    steps;
  let grants = ref [] in
  let on_grant g = grants := key g :: !grants in
  let t0 = host_now () in
  List.iter
    (function
      | Ls.T_request r -> Ls.submit srv r ~on_grant
      | Ls.T_ack { t_rid; t_lock_id } ->
          Ls.control srv (Seqdlm.Types.Revoke_ack { rid = t_rid; lock_id = t_lock_id })
      | Ls.T_release { t_rid; t_lock_id } ->
          Ls.control srv (Seqdlm.Types.Release { rid = t_rid; lock_id = t_lock_id })
      | Ls.T_downgrade { t_rid; t_lock_id; t_mode } ->
          Ls.control srv
            (Seqdlm.Types.Downgrade { rid = t_rid; lock_id = t_lock_id; mode = t_mode })
      | Ls.T_grant _ | Ls.T_revoke _ | Ls.T_crash _ -> ())
    steps;
  (host_now () -. t0, List.rev !grants)

let replays = 3

(* ns per lock-server protocol step, median of [replays] replays of
   every server's stream. *)
let lock_server_probe errors cl cap =
  let policy = Cluster.policy cl in
  let streams = Array.map List.rev cap.steps in
  let recorded =
    Array.map
      (List.filter_map (function
        | Ls.T_grant (g, _) -> Some (key g)
        | _ -> None))
      streams
  in
  let inputs =
    Array.map
      (List.filter (function Ls.T_grant _ -> false | _ -> true))
      streams
  in
  let steps = Array.fold_left (fun a l -> a + List.length l) 0 inputs in
  let times =
    List.init replays (fun _ ->
        let total = ref 0. in
        Array.iteri
          (fun i input ->
            let dt, grants = replay_lock_server ~policy input in
            total := !total +. dt;
            Workload.check errors (grants = recorded.(i))
              (Printf.sprintf "lock-server replay of ls%d diverged from the recorded grants" i))
          inputs;
        !total)
  in
  [
    ("lock_server.host_ns_per_step", ratio (Workload.median times *. 1e9) (fi steps));
    ("lock_server.replay_steps", fi steps);
  ]

(* ns per extent-map merge: the recorded cache inserts of each stripe,
   merged in order under the data server's (SN, op) rule, must end up
   describing exactly the device contents. *)
let extent_map_probe errors (r : Workload.rep) cap =
  let by_rid = Hashtbl.create 16 in
  List.iter
    (fun i ->
      let l = Option.value (Hashtbl.find_opt by_rid i.rid) ~default:[] in
      Hashtbl.replace by_rid i.rid (i :: l))
    cap.inserts;
  let rids = List.sort_uniq Int.compare (Hashtbl.fold (fun k _ a -> k :: a) by_rid []) in
  let streams = List.map (fun rid -> (rid, Array.of_list (Hashtbl.find by_rid rid))) rids in
  let merge_all () =
    List.map
      (fun (rid, ins) ->
        ( rid,
          Array.fold_left
            (fun m i ->
              let k = (i.sn, i.op) in
              fst (Extent_map.merge m i.range k ~keep_new:(fun ~old -> k > old)))
            Extent_map.empty ins ))
      streams
  in
  let runs =
    List.init replays (fun _ ->
        let t0 = host_now () in
        let maps = merge_all () in
        (host_now () -. t0, maps))
  in
  let maps = snd (List.hd runs) in
  List.iter
    (fun (rid, m) ->
      let hi = Extent_map.fold (fun (iv : Interval.t) _ a -> max a iv.hi) m 0 in
      let stripe = Layout.rid_stripe rid in
      let device =
        Content.read (Cluster.stripe_contents r.cl r.file ~stripe) (Interval.v ~lo:0 ~hi)
      in
      let agrees ((iv : Interval.t), tag) =
        let covered = Extent_map.overlapping m iv in
        match tag with
        | None -> covered = []
        | Some (tg : Content.tag) ->
            List.fold_left (fun a ((c : Interval.t), _) -> a + Interval.length c) 0 covered
            = Interval.length iv
            && List.for_all (fun (_, k) -> k = (tg.sn, tg.op)) covered
      in
      Workload.check errors (List.for_all agrees device)
        (Printf.sprintf "extent-map replay of rid %d disagrees with the device" rid))
    maps;
  let n = List.length cap.inserts in
  [
    ( "extent_map.host_ns_per_merge",
      ratio (Workload.median (List.map fst runs) *. 1e9) (fi n) );
    ("extent_map.replay_merges", fi n);
  ]

(* Everything only the traced repetition can give, plus its failed
   replay checks. *)
let traced (r : Workload.rep) cap =
  let errors = ref [] in
  let cl = r.cl in
  let per_op x = ratio (x *. 1e6) (fi r.sim.ops) in
  let spans = span_totals cap.sink in
  let reg = Dessim.Engine.metrics (Cluster.engine cl) in
  (* Summed FIFO queueing delay of every instance of a resource kind. *)
  let wait kinds =
    List.fold_left
      (fun a k -> a +. Obs.Metrics.hist_sum (Obs.Metrics.histogram reg ("resource.wait." ^ k)))
      0. kinds
  in
  let layers =
    [
      ("srv_ops.sim_wait_s", wait [ "srv.ops" ]);
      ("net.sim_wait_s", wait [ "net.rx"; "net.ctl" ]);
      ("rpc.sim_call_us_per_op", per_op spans.client_calls);
      ("client.sim_self_us_per_op", per_op spans.client_self);
      ("client_cache.sim_flush_us_per_op", per_op spans.flush);
      ("mem.sim_wait_s", wait [ "mem" ]);
      ("disk.sim_wait_s", wait [ "disk" ]);
      ("data_server.sim_io_us_per_op", per_op spans.ds);
      ( "repl.shipped",
        fi (Obs.Metrics.counter_value (Obs.Metrics.counter reg "repl.shipped")) );
      ("trace.events", fi (Obs.Trace.num_events cap.sink));
    ]
    @ lock_server_probe errors cl cap
    @ extent_map_probe errors r cap
  in
  (layers, !errors)
