(* The benchmark's metric table: every name, unit, direction and bound
   the suite prints, and for each per-layer metric the end-to-end metric
   and workload it is expected to move.  BENCHMARK.json at the repository
   root repeats the names, units and directions, with the [listed]
   bounds; the smoke test fails if the two ever disagree.

   Units carry the clock: [s], [ns], [MiB] are host measurements (noisy,
   comparable only on one machine); units with [sim] are simulated time,
   a deterministic function of workload, size and seed. *)

type better = Lower | Higher

let better_to_string = function Lower -> "lower" | Higher -> "higher"

type e2e = {
  name : string;
  unit : string;
  better : better;
  bound : float;
      (** share of the parent's median by which a change may worsen the
          metric before [compare] counts it as a regression, on paired
          runs with identical seeds *)
  floor : float;
      (** an absolute allowance in the metric's unit: a change worse by
          less than this never counts as a regression *)
  listed : float option;
      (** the bound BENCHMARK.json lists, which is applied to medians
          over ten runs with ten different seeds; [None] for a metric
          BENCHMARK.json leaves out, because its end-to-end metrics
          must be defined and non-zero on every workload *)
  sim : bool;  (** simulated time: every pair must agree in [compare] *)
}

let exact = 1e-9

let e ?listed ?(floor = 0.) ~sim name unit better bound =
  { name; unit; better; bound; floor; listed; sim }

(* Two sets of bounds, because they judge different data.  [compare]
   pairs runs of two commits on identical seeds, alternating which runs
   first, so host drift largely cancels and simulated metrics must
   match exactly.  The BENCHMARK.json bounds are applied to medians of
   ten runs with ten different seeds, made minutes apart: simulated
   metrics then vary with the seed (open-mixed's tail the most), and
   host time on the 2-vCPU Xeon VM the baseline was measured on drifts
   by up to a third for minutes at a time, so host metrics take the
   widest bound that file permits (0.25).  That wider bound does not
   meet the 10 % host-time target; README.md records by how much. *)
let end_to_end =
  [
    e ~sim:false ~floor:0.005 ~listed:0.25 "setup_s" "s" Lower 0.10;
    e ~sim:false ~listed:0.25 "host_s" "s" Lower 0.10;
    e ~sim:false ~listed:0.05 "heap_peak_mb" "MiB" Lower 0.05;
    e ~sim:true ~listed:0.03 "sim_goodput_GBps" "GB/sim-s" Higher exact;
    e ~sim:true ~listed:0.03 "sim_ops_per_s" "op/sim-s" Higher exact;
    e ~sim:true ~listed:0.03 "sim_io_s" "sim-s" Lower exact;
    e ~sim:true ~listed:0.05 "sim_lat_p50_us" "sim-us" Lower exact;
    e ~sim:true ~listed:0.25 "sim_lat_p999_us" "sim-us" Lower exact;
    (* open-mixed only; N/A elsewhere *)
    e ~sim:true "sim_max_rate_under_slo_rps" "req/sim-s" Higher exact;
    (* 0 on every workload by construction: no operation may fail *)
    e ~sim:true "failed_frac" "ratio" Lower exact;
  ]

type layer = {
  lname : string;
  lunit : string;
  lbetter : better;
  layer : string;
  traced : bool;  (** needs the traced rep (trace sink or metrics registry) *)
  moves : string;  (** the end-to-end metric and workload it should move *)
}

let l ?(traced = false) layer lname lunit lbetter moves =
  { lname; lunit; lbetter; layer; traced; moves }

let per_layer =
  let eng = "host_s on pw-convoy (dispatch-bound), not ior-strided" in
  let gc = "host_s and heap_peak_mb on ior-strided and ior-segmented" in
  let rpc = "sim_lat_p999_us on pw-convoy and open-mixed" in
  let lc = "host_s and sim_lat_p50_us on ior-strided; flat on ior-segmented" in
  let ls = "sim_lat_* on pw-convoy and ior-strided" in
  let ls_host = "host_s on pw-convoy and ior-strided; ~0 share on ior-segmented" in
  let cc = "sim_goodput_GBps and sim_io_s on ior-segmented; sim_lat_p50_us on open-mixed" in
  let ds = "sim_io_s on ior-segmented; host_s on ior-strided" in
  let em = "host_s on ior-strided versus ior-segmented" in
  let repl = "sim_lat_p999_us and host_s on open-mixed; 0 elsewhere" in
  let load = "failed_frac and sim_max_rate_under_slo_rps on open-mixed" in
  let trace = "nothing: must stay small" in
  [
    l "engine" "engine.events" "count" Lower eng;
    l "engine" "engine.host_ns_per_event" "ns" Lower eng;
    l "gc" "gc.minor_words_per_op" "words/op" Lower gc;
    l "gc" "gc.major_collections" "count" Lower gc;
    l "rpc" "rpc.messages" "count" Lower rpc;
    l "rpc" "rpc.net_bytes" "B" Lower rpc;
    l "rpc" "srv_ops.sim_busy_frac" "ratio" Lower rpc;
    l ~traced:true "rpc" "srv_ops.sim_wait_s" "sim-s" Lower rpc;
    l ~traced:true "rpc" "net.sim_wait_s" "sim-s" Lower rpc;
    l ~traced:true "rpc" "rpc.sim_call_us_per_op" "sim-us" Lower rpc;
    l "lock_client" "lock_client.acquires" "count" Lower lc;
    l "lock_client" "lock_client.cache_hit_frac" "ratio" Higher lc;
    l "lock_client" "lock_client.cached_locks" "count" Lower lc;
    l "lock_client" "lock_client.cancels" "count" Lower lc;
    l "lock_client" "lock_client.locking_s" "sim-s" Lower lc;
    l "lock_client" "lock_client.stale_bounces" "count" Lower lc;
    l "lock_client" "lock_client.retries" "count" Lower lc;
    l "lock_server" "lock_server.grants" "count" Lower ls;
    l "lock_server" "lock_server.early_grants" "count" Higher ls;
    l "lock_server" "lock_server.early_revocations" "count" Higher ls;
    l "lock_server" "lock_server.revokes_sent" "count" Lower ls;
    l "lock_server" "lock_server.upgrades" "count" Lower ls;
    l "lock_server" "lock_server.downgrades" "count" Lower ls;
    l "lock_server" "lock_server.expansions" "count" Higher ls;
    l "lock_server" "lock_server.max_queue" "count" Lower ls;
    l "lock_server" "lock_server.revocation_wait_s" "sim-s" Lower ls;
    l "lock_server" "lock_server.release_wait_s" "sim-s" Lower ls;
    l ~traced:true "lock_server" "lock_server.host_ns_per_step" "ns" Lower ls_host;
    l ~traced:true "lock_server" "lock_server.replay_steps" "count" Lower ls_host;
    l "client" "client.ops" "count" Higher "sim_lat_p50_us";
    l ~traced:true "client" "client.sim_self_us_per_op" "sim-us" Lower
      "sim_lat_p50_us";
    l "client_cache" "client_cache.write_s" "sim-s" Lower cc;
    l "client_cache" "client_cache.flush_rpcs" "count" Lower cc;
    l "client_cache" "client_cache.bytes_flushed" "B" Lower cc;
    l "client_cache" "client_cache.dirty_peak_bytes" "B" Lower cc;
    l "client_cache" "client_cache.read_hit_frac" "ratio" Higher cc;
    l ~traced:true "client_cache" "client_cache.sim_flush_us_per_op" "sim-us"
      Lower cc;
    l ~traced:true "client_cache" "mem.sim_wait_s" "sim-s" Lower cc;
    l "data_server" "data_server.flush_rpcs" "count" Lower ds;
    l "data_server" "data_server.blocks_in" "count" Lower ds;
    l "data_server" "data_server.bytes_written" "B" Lower ds;
    l "data_server" "data_server.discard_frac" "ratio" Lower ds;
    l "data_server" "data_server.reads" "count" Lower ds;
    l "data_server" "data_server.cache_peak" "count" Lower ds;
    l "data_server" "data_server.cleanup_runs" "count" Lower ds;
    l "data_server" "data_server.force_syncs" "count" Lower ds;
    l "data_server" "data_server.write_amp" "ratio" Lower ds;
    l "data_server" "disk.sim_busy_frac" "ratio" Lower ds;
    l ~traced:true "data_server" "disk.sim_wait_s" "sim-s" Lower ds;
    l ~traced:true "data_server" "data_server.sim_io_us_per_op" "sim-us" Lower
      ds;
    l ~traced:true "extent_map" "extent_map.host_ns_per_merge" "ns" Lower em;
    l ~traced:true "extent_map" "extent_map.replay_merges" "count" Lower em;
    l "repl" "repl.max_lag_end" "count" Lower repl;
    l ~traced:true "repl" "repl.shipped" "count" Lower repl;
    l "load" "load.arrivals" "count" Higher load;
    l "load" "load.completed" "count" Higher load;
    l "load" "load.shed" "count" Lower load;
    l "load" "load.achieved_rps" "req/sim-s" Higher load;
    l ~traced:true "trace" "trace.events" "count" Lower trace;
    l ~traced:true "trace" "trace.host_overhead_frac" "ratio" Lower trace;
  ]

let find_e2e name = List.find_opt (fun m -> String.equal m.name name) end_to_end
