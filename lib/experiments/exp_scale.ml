open Ccpfs_util
open Ccpfs

(* Cluster-scale contention: the Fig. 18 shared-file contention pattern
   (every client rewrites the same range of one file under whole-range
   PW locks) pushed to 128/256/512 simulated clients.  Lock-server
   queueing under heavy contention is the simulation hot path; each
   row records the convoy's simulated cost (PIO span, per-write latency
   percentiles, queue depth, lock stats) and its engine event count.
   How fast the simulator runs it is measured by bench/suite's
   pw-convoy workload, not here.  One row per client count goes to
   BENCH_scale.json (schema ccpfs.scale/1). *)

(* CI's scale-smoke job runs the reduced 128-client point only:
   CCPFS_SCALE_CLIENTS="128" ccpfs_run run scale *)
let client_counts () =
  Knob.int_list "CCPFS_SCALE_CLIENTS" ~default:[ 128; 256; 512 ] ~min:1

let xfer = 64 * Units.kib

(* Span of the deterministic per-write think-time jitter.  Without it the
   convoy is perfectly symmetric: after the first round every write
   experiences the identical steady-state queue wait, all samples are
   bit-for-bit equal and p50 == p99 exactly (the committed-bench
   degeneracy this knob fixes).  Real clients never arrive in lockstep;
   a uniform [0, 50µs) pause before each write — excluded from the
   measured latency — desynchronises arrivals enough that the recorded
   distribution has genuine spread, while staying two orders of
   magnitude below the multi-ms queue waits it perturbs. *)
let think_jitter_span = 50e-6

type measurement = {
  m_clients : int;
  m_writes_each : int;
  m_events : int;
  m_requests : int; (* lock requests enqueued at the servers *)
  m_sim_pio_s : float;
  m_sim_total_s : float;
  m_write_lat : Stats.t; (* simulated per-write latency *)
  m_lock_stats : Seqdlm.Lock_server.stats;
}

let run_one ~clients ~writes_each =
  let _, cl, (pio, lat) =
    Harness.run ~name:"exp_scale"
      (fun () ->
        Cluster.create ~policy:Seqdlm.Policy.seqdlm ~n_servers:1
          ~n_clients:clients ())
      (fun cl ->
        let eng = Cluster.engine cl in
        let lat = Stats.create () in
        let writers_done = ref 0. in
        let root_rng = Det_random.create ~seed:0x5ca1e in
        for i = 0 to clients - 1 do
          let rng = Det_random.split root_rng in
          Cluster.spawn_client cl i ~name:(Printf.sprintf "w%d" i) (fun c ->
              let f = Client.open_file c ~create:true "/scale" in
              for _ = 1 to writes_each do
                Dessim.Engine.sleep eng (Det_random.float rng think_jitter_span);
                let t0 = Cluster.now cl in
                Client.write ~mode:Seqdlm.Mode.PW ~lock_whole_range:true c f
                  ~off:0 ~len:xfer;
                Stats.add lat (Cluster.now cl -. t0)
              done;
              if Cluster.now cl > !writers_done then
                writers_done := Cluster.now cl)
        done;
        fun () -> (!writers_done, lat))
  in
  {
    m_clients = clients;
    m_writes_each = writes_each;
    m_events = Dessim.Engine.events_dispatched (Cluster.engine cl);
    m_requests = clients * writes_each;
    m_sim_pio_s = pio;
    m_sim_total_s = Cluster.now cl;
    m_write_lat = lat;
    m_lock_stats = Cluster.sum_lock_stats cl;
  }

let row_of (m : measurement) =
  let open Obs.Json in
  Obj
    [
      ("experiment", Str "scale");
      ("scale", Float (Obs.Hub.scale ()));
      ("clients", Int m.m_clients);
      ("writes_each", Int m.m_writes_each);
      ("xfer_bytes", Int xfer);
      ("events", Int m.m_events);
      ("requests", Int m.m_requests);
      ("sim_pio_s", Float m.m_sim_pio_s);
      ("sim_total_s", Float m.m_sim_total_s);
      ("write_lat_p50_s", Float (Stats.percentile m.m_write_lat 50.));
      ("write_lat_p99_s", Float (Stats.percentile m.m_write_lat 99.));
      ("lock_stats", Harness.lock_stats_json m.m_lock_stats);
    ]

let results_schema = "ccpfs.scale/1"
let results_path = "BENCH_scale.json"

let run ~scale =
  let writes_each = Harness.scaled ~scale 8 in
  let tbl =
    Table.create
      ~title:
        (Printf.sprintf
           "Scale: shared-file PW contention (%d writes/client x %s)"
           writes_each
           (Units.bytes_to_string xfer))
      ~columns:
        [ "clients"; "events"; "sim PIO"; "max queue"; "lat p50"; "lat p99" ]
  in
  let rows =
    List.map
      (fun clients ->
        let m = run_one ~clients ~writes_each in
        Table.add_row tbl
          [
            string_of_int m.m_clients;
            string_of_int m.m_events;
            Units.seconds_to_string m.m_sim_pio_s;
            string_of_int m.m_lock_stats.max_queue;
            Units.seconds_to_string (Stats.percentile m.m_write_lat 50.);
            Units.seconds_to_string (Stats.percentile m.m_write_lat 99.);
          ];
        row_of m)
      (client_counts ())
  in
  let n = Harness.write_rows ~schema:results_schema ~path:results_path rows in
  Table.add_note tbl
    (Printf.sprintf "events = engine dispatches; %d row(s) in %s" n
       results_path);
  Table.print tbl
