open Ccpfs_util

let max_block = 32
let page = Units.page

let random_op rng =
  match Det_random.int rng 10 with
  | 0 | 1 | 2 | 3 | 4 | 5 ->
      let blocks = 1 + Det_random.int rng 6 in
      let block = Det_random.int rng (max_block - blocks + 1) in
      Case.Write { block; blocks }
  | 6 | 7 ->
      let blocks = 1 + Det_random.int rng 6 in
      let block = Det_random.int rng (max_block - blocks + 1) in
      Case.Read { block; blocks }
  | 8 -> Case.Append { blocks = 1 + Det_random.int rng 3 }
  | _ -> Case.Truncate { blocks = Det_random.int rng (max_block + 1) }

(* Per-client op lists for one phase.  Half the phases start from an IOR
   shared-file pattern (the paper's workload shapes), the rest are pure
   random mixes.  Draw order is fixed: loops, not [Array.init] (whose
   evaluation order is unspecified). *)
let gen_phase rng ~n_clients =
  let ops = Array.make n_clients [] in
  if Det_random.bool rng then begin
    let pattern =
      Det_random.pick rng
        [| Workloads.Access.N1_segmented; Workloads.Access.N1_strided |]
    in
    let xfer = (1 + Det_random.int rng 2) * page in
    let blocks = 1 + Det_random.int rng 3 in
    for rank = 0 to n_clients - 1 do
      ops.(rank) <-
        Workloads.Ior.accesses ~pattern ~nprocs:n_clients ~rank ~xfer ~blocks
        |> List.map (fun (a : Workloads.Access.t) ->
               Case.Write { block = a.off / page; blocks = a.len / page })
    done
  end;
  for i = 0 to n_clients - 1 do
    let extra =
      Det_random.int rng 5 + (if ops.(i) = [] then 1 else 0)
    in
    let acc = ref [] in
    for _ = 1 to extra do
      acc := random_op rng :: !acc
    done;
    ops.(i) <- ops.(i) @ List.rev !acc
  done;
  let crash_server = Det_random.int rng 3 = 0 in
  (ops, crash_server)

let gen_sim_params rng =
  let rtt = 5e-5 +. Det_random.float rng 4.5e-4 in
  let b_net = 1e9 +. Det_random.float rng 9e9 in
  let server_ops = 5e3 +. Det_random.float rng 2e5 in
  let b_disk = 2e8 +. Det_random.float rng 1.8e9 in
  let b_mem = 1e9 +. Det_random.float rng 9e9 in
  let client_io_overhead = Det_random.float rng 2e-5 in
  {
    Netsim.Params.rtt;
    b_net;
    server_ops;
    b_disk;
    b_mem;
    ctl_msg_bytes = 128;
    bulk_threshold = 16 * 1024;
    client_io_overhead;
  }

let gen_sim ?(faults = false) seed rng =
  let params = gen_sim_params rng in
  let policy_idx = Det_random.int rng (Array.length Case.policies) in
  let stripes = Det_random.pick rng [| 1; 1; 2; 4 |] in
  let stripe_blocks = Det_random.pick rng [| 4; 8; 16 |] in
  (* Server count is drawn independently of the stripe count: with the
     sharded namespace, n_servers > stripes is a legal (if lopsided)
     deployment, and multi-server single-stripe cases are exactly where
     migrations and stale-route bounces bite. *)
  let n_servers = 1 + Det_random.int rng 4 in
  let n_clients = 1 + Det_random.int rng 4 in
  let dirty_min_blocks =
    (* Tight limits make the flush daemon and writer backpressure fire
       mid-run; generous ones keep everything dirty until fsync. *)
    if Det_random.bool rng then 8 + Det_random.int rng 56 else 4096
  in
  let dirty_max_blocks = dirty_min_blocks * 4 in
  let extent_cache_limit =
    if Det_random.int rng 4 = 0 then 16 + Det_random.int rng 112
    else Ccpfs.Config.default.extent_cache_limit
  in
  let tie_random = Det_random.bool rng in
  let jitter =
    if Det_random.int rng 3 = 0 then Det_random.float rng (2. *. params.rtt)
    else 0.
  in
  let n_phases = 1 + Det_random.int rng 3 in
  let phases = ref [] in
  for _ = 1 to n_phases do
    let ops, crash = gen_phase rng ~n_clients in
    let crash_server =
      if crash then Some (Det_random.int rng n_servers) else None
    in
    phases := { Case.ops; crash_server; crash_mid = None } :: !phases
  done;
  let phases = List.rev !phases in
  (* Online-failure draws come after everything else so a given seed
     produces the same workload shape it did before the ha layer
     existed, just with faults layered on top. *)
  let loss =
    if faults then 0.01 +. Det_random.float rng 0.07
    else if Det_random.int rng 5 = 0 then Det_random.float rng 0.05
    else 0.
  in
  let dup =
    if faults then Det_random.float rng 0.05
    else if Det_random.int rng 5 = 0 then Det_random.float rng 0.03
    else 0.
  in
  let gen_mid () =
    (* Early enough to land among in-flight requests on most cases;
       harmless (detector + recovery still run) if the phase already
       went quiescent. *)
    Some (Det_random.int rng n_servers, Det_random.float rng (200. *. params.rtt))
  in
  let phases =
    List.map
      (fun (p : Case.phase) ->
        let want = if faults then Det_random.bool rng
                   else Det_random.int rng 6 = 0 in
        if want then { p with crash_mid = gen_mid () } else p)
      phases
  in
  let phases =
    (* Forcing mode (CI fault smoke) guarantees at least one online
       crash per case. *)
    if
      faults
      && not
           (List.exists
              (fun (p : Case.phase) -> Option.is_some p.Case.crash_mid)
              phases)
    then
      match phases with
      | p :: rest -> { p with crash_mid = gen_mid () } :: rest
      | [] -> phases
    else phases
  in
  (* The retired RPC-batching draw: still consumed, so every later draw
     of every seed stays where it was until the corpus is re-pinned. *)
  if Det_random.int rng 3 = 0 then ignore (Det_random.int rng 7);
  (* Load draw is at the very tail (after even the retired draw) so every
     seed that existed before the open-loop generator keeps its shape.
     A quarter of cases append a short open-loop segment; the rate spans
     roughly 0.02x-0.15x of the per-request service rate 1/rtt, i.e.
     from comfortable to clearly saturating for small clusters. *)
  let load =
    if Det_random.int rng 4 = 0 then begin
      let l_process = Det_random.int rng 3 in
      let l_rate = (0.5 +. Det_random.float rng 4.) /. (30. *. params.rtt) in
      let l_requests = 4 + Det_random.int rng 21 in
      let l_cap = 1 + Det_random.int rng (2 * n_clients) in
      let span = float_of_int l_requests /. l_rate in
      let n_churn = Det_random.int rng 3 in
      let churn = ref [] in
      for _ = 1 to n_churn do
        let at = Det_random.float rng span in
        let cli = Det_random.int rng n_clients in
        let up = Det_random.bool rng in
        churn := { Case.ch_at = at; ch_client = cli; ch_up = up } :: !churn
      done;
      Some
        { Case.l_rate; l_process; l_requests; l_cap; l_churn = List.rev !churn }
    end
    else None
  in
  (* Migration draw is the very tail of the stream (the newest layer,
     after even the load draw) so every pre-sharding seed keeps its
     shape.  A fifth of cases rehome one or two stripes mid-run; the
     offsets span the window where phase traffic is typically still in
     flight. *)
  let migrations =
    if Det_random.int rng 5 = 0 then begin
      let n = 1 + Det_random.int rng 2 in
      let acc = ref [] in
      for _ = 1 to n do
        let mg_stripe = Det_random.int rng stripes in
        let mg_dst = Det_random.int rng n_servers in
        let mg_after = Det_random.float rng (500. *. params.rtt) in
        acc := { Case.mg_stripe; mg_dst; mg_after } :: !acc
      done;
      List.rev !acc
    end
    else []
  in
  (* The replication / partition / double-failure draws are the newest
     tail layer (after even the migration draw), so every pre-repl seed
     keeps its shape.  A third of cases replicate each lock server's
     grant log to f in {1,2} backups (DESIGN.md §16); a fifth get
     lossy-partition windows on one server's client-facing endpoints; a
     quarter arm a second mid-crash that lands inside the first
     failover's window (inert unless a phase drew a crash_mid). *)
  let repl =
    if Det_random.int rng 3 = 0 then 1 + Det_random.int rng 2 else 0
  in
  let partitions =
    if Det_random.int rng 5 = 0 then begin
      let n = 1 + Det_random.int rng 2 in
      let acc = ref [] in
      for _ = 1 to n do
        let pt_server = Det_random.int rng n_servers in
        let pt_at = Det_random.float rng (300. *. params.rtt) in
        let pt_dur = (20. +. Det_random.float rng 180.) *. params.rtt in
        let pt_loss = 0.3 +. Det_random.float rng 0.6 in
        let pt_dup = Det_random.float rng 0.05 in
        acc := { Case.pt_server; pt_at; pt_dur; pt_loss; pt_dup } :: !acc
      done;
      List.rev !acc
    end
    else []
  in
  let dbl =
    if Det_random.int rng 4 = 0 then
      Some
        ( Det_random.int rng n_servers,
          Det_random.float rng (50. *. params.rtt) )
    else None
  in
  {
    Case.seed;
    params;
    kind =
      Case.Sim
        {
          policy_idx;
          n_servers;
          n_clients;
          stripes;
          stripe_blocks;
          dirty_min_blocks;
          dirty_max_blocks;
          extent_cache_limit;
          tie_random;
          jitter;
          loss;
          dup;
          phases;
          load;
          migrations;
          repl;
          partitions;
          dbl;
        };
  }

(* An Eq. (1) differential case.  D is fixed at 1 MiB and RTT derived so
   the flush term ③ dominates by 25x — where the closed form is an
   accurate model of the simulated serialization (§II-C); unmodeled
   per-client costs (initial grants, control messages) stay within the
   checker's tolerance. *)
let gen_analytic seed rng =
  let b_net = 2e9 +. Det_random.float rng 1.05e10 in
  let b_disk = 5e8 +. Det_random.float rng 4.5e9 in
  let b_flush = b_net *. b_disk /. (b_net +. b_disk) in
  let d = Units.mib in
  let rtt = float_of_int d /. (25. *. b_flush) in
  let server_ops = 1e5 +. Det_random.float rng 9e5 in
  let a_clients = 2 + Det_random.int rng 7 in
  {
    Case.seed;
    params =
      {
        Netsim.Params.rtt;
        b_net;
        server_ops;
        b_disk;
        b_mem = infinity;
        ctl_msg_bytes = 128;
        bulk_threshold = 16 * 1024;
        client_io_overhead = 0.;
      };
    kind = Case.Analytic { a_clients; a_bytes = d };
  }

let of_seed ?(faults = false) seed =
  let rng = Det_random.create ~seed in
  (* The analytic-vs-sim draw happens unconditionally to keep the rng
     stream aligned; fault-forcing mode always takes the sim branch
     (there is no online-failure story for the closed-form cases). *)
  let analytic = Det_random.int rng 20 = 0 in
  if analytic && not faults then gen_analytic seed rng
  else gen_sim ~faults seed rng
