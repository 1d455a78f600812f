open Ccpfs_util
open Ccpfs

(* Lock-namespace sharding capstone (DESIGN.md §15): the same pairwise
   PW contention workload pushed through 1, 2, 4 and 8 lock servers at
   512 clients.  Client pair k ping-pongs a whole-block PW lock on
   stripe [k mod stripes], so the file's resources form [stripes]
   independent contention domains; with the namespace sharded over n
   servers each server carries [stripes/n] of them and the aggregate
   simulated request rate should rise close to linearly — the paper's
   motivation for distributing the DLM in the first place (§II-B).

   Every multi-server point also performs at least one epoch-fenced
   live migration while the traffic runs (a forced rehoming of stripe
   0's resource plus whatever the queue-depth rebalancer decides), so
   the row doubles as an end-to-end soak of the Stale_owner
   refresh-and-retry path: [migrations] and [stale_bounces] are
   recorded per row.

   The measured quantity is requests per *simulated* second — service
   capacity, the thing sharding buys.  One row per server count goes to
   BENCH_shard.json (schema ccpfs.shard/1). *)

(* golden/dune's sanitized shard smoke runs a reduced sweep:
   CCPFS_SHARD_SERVERS=1,2 CCPFS_SHARD_CLIENTS=32 CCPFS_SHARD_STRIPES=8
   ccpfs_run run shard *)
let server_counts () =
  Knob.int_list "CCPFS_SHARD_SERVERS" ~default:[ 1; 2; 4; 8 ] ~min:1

let client_count () = Knob.int "CCPFS_SHARD_CLIENTS" ~default:512 ~min:1
let stripe_count () = Knob.int "CCPFS_SHARD_STRIPES" ~default:32 ~min:1

let stripe_size = 64 * Units.kib
let xfer = 16 * Units.kib

(* Same role as exp_scale's think jitter: desynchronise the convoy so
   the latency distribution has genuine spread. *)
let think_jitter_span = 50e-6

type measurement = {
  m_servers : int;
  m_clients : int;
  m_stripes : int;
  m_writes_each : int;
  m_events : int;
  m_requests : int;
  m_sim_pio_s : float; (* simulated time at which the last writer finished *)
  m_sim_total_s : float;
  m_migrations : int;
  m_stale_bounces : int;
  m_write_lat : Stats.t;
  m_lock_stats : Seqdlm.Lock_server.stats;
}

let run_one ~servers ~clients ~stripes ~writes_each =
  let _, cl, (pio, lat) =
    Harness.run ~name:"exp_shard"
      (fun () ->
        let config = Config.with_extent_log true Config.default in
        Cluster.create ~config ~policy:Seqdlm.Policy.seqdlm ~n_servers:servers
          ~n_clients:clients ())
      (fun cl ->
        let eng = Cluster.engine cl in
        Obs.Metrics.enable (Dessim.Engine.metrics eng);
        let layout = Layout.v ~stripe_size ~stripe_count:stripes () in
        let lat = Stats.create () in
        let writers_done = ref 0. in
        let file = ref None in
        let root_rng = Det_random.create ~seed:0x54a4d in
        for i = 0 to clients - 1 do
          let rng = Det_random.split root_rng in
          let stripe = i / 2 mod stripes in
          Cluster.spawn_client cl i ~name:(Printf.sprintf "w%d" i) (fun c ->
              let f = Client.open_file c ~create:true ~layout "/shard" in
              if Option.is_none !file then file := Some f;
              for _ = 1 to writes_each do
                Dessim.Engine.sleep eng (Det_random.float rng think_jitter_span);
                let t0 = Cluster.now cl in
                Client.write ~mode:Seqdlm.Mode.PW c f
                  ~off:(stripe * stripe_size) ~len:xfer;
                Stats.add lat (Cluster.now cl -. t0)
              done;
              if Cluster.now cl > !writers_done then
                writers_done := Cluster.now cl)
        done;
        (* Live migration under traffic: rehome stripe 0's resource to
           the next server partway through the run, and let the
           queue-depth rebalancer shave whatever imbalance it observes. *)
        let rb =
          if servers > 1 then begin
            let params = Cluster.params cl in
            Dessim.Engine.spawn eng ~name:"forced-migration" (fun () ->
                (* Wait for a quarter of the writes, so the rehoming lands
                   while the remaining three quarters are still in flight
                   and the Stale_owner path sees real traffic. *)
                let quarter = clients * writes_each / 4 in
                while Stats.count lat < quarter do
                  Dessim.Engine.sleep eng (10. *. params.Netsim.Params.rtt)
                done;
                match !file with
                | None -> ()
                | Some f ->
                    let rid = Layout.rid ~fid:(Client.fid f) ~stripe:0 in
                    let dst = (Cluster.server_of_rid cl rid + 1) mod servers in
                    ignore (Cluster.migrate_resource cl ~rid ~dst));
            let rb = Ha.Rebalancer.create ~threshold:8 cl in
            Ha.Rebalancer.start rb;
            Some rb
          end
          else None
        in
        fun () ->
          Option.iter Ha.Rebalancer.stop rb;
          (!writers_done, lat))
  in
  {
    m_servers = servers;
    m_clients = clients;
    m_stripes = stripes;
    m_writes_each = writes_each;
    m_events = Dessim.Engine.events_dispatched (Cluster.engine cl);
    m_requests = clients * writes_each;
    m_sim_pio_s = pio;
    m_sim_total_s = Cluster.now cl;
    m_migrations = List.length (Cluster.migrations cl);
    m_stale_bounces = Cluster.total_stale_bounces cl;
    m_write_lat = lat;
    m_lock_stats = Cluster.sum_lock_stats cl;
  }

let requests_per_sim_s m =
  float_of_int m.m_requests /. Float.max 1e-9 m.m_sim_pio_s

let row_of (m : measurement) =
  let s = m.m_lock_stats in
  let open Obs.Json in
  Obj
    [
      ("experiment", Str "shard");
      ("scale", Float (Obs.Hub.scale ()));
      ("servers", Int m.m_servers);
      ("clients", Int m.m_clients);
      ("stripes", Int m.m_stripes);
      ("writes_each", Int m.m_writes_each);
      ("xfer_bytes", Int xfer);
      ("requests", Int m.m_requests);
      ("sim_pio_s", Float m.m_sim_pio_s);
      ("sim_total_s", Float m.m_sim_total_s);
      ("requests_per_sim_s", Float (requests_per_sim_s m));
      ("events", Int m.m_events);
      ("migrations", Int m.m_migrations);
      ("stale_bounces", Int m.m_stale_bounces);
      ("write_lat_p50_s", Float (Stats.percentile m.m_write_lat 50.));
      ("write_lat_p99_s", Float (Stats.percentile m.m_write_lat 99.));
      ( "lock_stats",
        Obj
          [
            ("grants", Int s.grants);
            ("revokes_sent", Int s.revokes_sent);
            ("releases", Int s.releases);
            ("revocation_wait_s", Float s.revocation_wait);
            ("max_queue", Int s.max_queue);
          ] );
    ]

let results_schema = "ccpfs.shard/1"
let results_path = "BENCH_shard.json"

let run ~scale =
  let writes_each = Harness.scaled ~scale 8 in
  let clients = client_count () and stripes = stripe_count () in
  let tbl =
    Table.create
      ~title:
        (Printf.sprintf
           "Shard: aggregate lock throughput, %d clients in PW pairs over %d \
            stripes (%d writes/client x %s)"
           clients stripes writes_each
           (Units.bytes_to_string xfer))
      ~columns:
        [ "servers"; "sim reqs/s"; "speedup"; "migrations"; "bounces";
          "max queue"; "lat p99" ]
  in
  let base = ref None in
  let rows =
    List.map
      (fun servers ->
        let m = run_one ~servers ~clients ~stripes ~writes_each in
        let rate = requests_per_sim_s m in
        if Option.is_none !base then base := Some rate;
        Table.add_row tbl
          [
            string_of_int m.m_servers;
            Printf.sprintf "%.4g" rate;
            Printf.sprintf "%.2fx" (rate /. Option.get !base);
            string_of_int m.m_migrations;
            string_of_int m.m_stale_bounces;
            string_of_int m.m_lock_stats.max_queue;
            Units.seconds_to_string (Stats.percentile m.m_write_lat 99.);
          ];
        row_of m)
      (server_counts ())
  in
  let n = Harness.write_rows ~schema:results_schema ~path:results_path rows in
  Table.add_note tbl
    (Printf.sprintf
       "sim reqs/s = lock requests per simulated second (service capacity); \
        %d row(s) in %s"
       n results_path);
  Table.print tbl
