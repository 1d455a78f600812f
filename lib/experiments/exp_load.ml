open Ccpfs_util
open Ccpfs

(* Open-loop sustained-traffic benchmark: the offered-load-vs-latency
   curve the closed-loop experiments cannot draw.

   Every figure reproduction in this repo is closed-loop — each client
   issues its next write only after the previous one returns, so the
   offered load self-throttles exactly when the system congests, and
   latency past saturation is unobservable.  This experiment drives the
   same shared-file PW-contention workload (the exp_scale shape) through
   lib/load instead: a seeded arrival process (Poisson by default)
   schedules request arrival times up front, a bounded-backlog driver
   injects them regardless of completions, and a sweep controller walks
   offered rates across a grid around the measured closed-loop capacity
   to locate the knee — the first rate whose sojourn p99 blows past the
   SLO or whose achieved rate falls below 95% of offered.

   One row per rate point lands in BENCH_load.json (schema ccpfs.load/1).
   Rows carry no wall-clock fields, so a determinism double-run must
   reproduce them bit-identically.

   The shape is fixed: 128 clients, 8 x clients requests per rate point
   (scaled), Poisson arrivals, an in-flight cap of 4 x clients, churn
   on, and an SLO of 3 x the closed-loop p99.  Only the rate grid is a
   knob: CCPFS_LOAD_GRID, the multipliers of the measured capacity
   (default "0.25,0.5,0.75,0.9,1.1,1.4"). *)

let xfer = 64 * Units.kib
let seed_base = 0x10ad

let default_grid = [ 0.25; 0.5; 0.75; 0.9; 1.1; 1.4 ]

(* The workload body: the exp_scale contention shape — every request is
   a whole-range PW write to the one shared file. *)
let prepare c = (c, Client.open_file c ~create:true "/load")
let request (c, f) _k =
  Client.write ~mode:Seqdlm.Mode.PW ~lock_whole_range:true c f ~off:0 ~len:xfer;
  xfer

let fresh_cluster ~n_clients () =
  Cluster.create ~config:Config.default ~policy:Seqdlm.Policy.seqdlm
    ~n_servers:1 ~n_clients ()

(* Closed-loop calibration: the same workload driven the closed way
   (next write only after the previous returns).  Yields the system's
   closed-loop capacity (completions/sec over the PIO span) — the
   anchor the rate grid multiplies — and the closed-loop per-write
   latency that both seeds the auto-SLO and feeds the low-load
   differential test. *)
type calibration = { cap_rps : float; closed_lat : Stats.t }

let calibrate ~n_clients ~writes_each =
  let _, _, (pio, lat) =
    Harness.run ~name:"exp_load.calibrate" (fresh_cluster ~n_clients)
      (fun cl ->
        let eng = Cluster.engine cl in
        let lat = Stats.create () in
        let pio_end = ref 0. in
        let root_rng = Det_random.create ~seed:seed_base in
        for i = 0 to n_clients - 1 do
          let rng = Det_random.split root_rng in
          Cluster.spawn_client cl i ~name:(Printf.sprintf "cal%d" i) (fun c ->
              let ctx = prepare c in
              for k = 1 to writes_each do
                (* same desynchronising think jitter as exp_scale;
                   excluded from the measured latency *)
                Dessim.Engine.sleep eng (Det_random.float rng 50e-6);
                let t0 = Cluster.now cl in
                ignore (request ctx k);
                Stats.add lat (Cluster.now cl -. t0)
              done;
              if Cluster.now cl > !pio_end then pio_end := Cluster.now cl)
        done;
        fun () -> (Float.max 1e-9 !pio_end, lat))
  in
  { cap_rps = float_of_int (n_clients * writes_each) /. pio; closed_lat = lat }

(* Default churn schedule: an eighth of the clients (at least one)
   leaves at a third of the scheduled injection span and rejoins at two
   thirds — enough rotation that arrival routing demonstrably bends
   around Down clients, small enough that capacity barely moves. *)
let churn_schedule ~n_clients ~span =
  let movers = Stdlib.max 1 (n_clients / 8) in
  let acc = ref [] in
  for m = 0 to movers - 1 do
    let c = m * Stdlib.max 1 (n_clients / movers) in
    acc :=
      Load.Driver.{ ch_at = span /. 3.; ch_client = c; ch_up = false }
      :: Load.Driver.{ ch_at = 2. *. span /. 3.; ch_client = c; ch_up = true }
      :: !acc
  done;
  List.rev !acc

(* In-flight requests before the driver sheds arrivals. *)
let cap_of ~n_clients = 4 * n_clients

(* One open-loop rate point on a fresh cluster. *)
let run_point ~n_clients ~requests ~churn rate =
  let _, _, r =
    Harness.run ~name:"exp_load" (fresh_cluster ~n_clients) (fun cl ->
        let span = float_of_int requests /. rate in
        let spec =
          Load.Driver.
            {
              process = Load.Arrivals.Poisson rate;
              seed = seed_base;
              requests;
              max_in_flight = cap_of ~n_clients;
              churn = (if churn then churn_schedule ~n_clients ~span else []);
              start_at = 0.;
            }
        in
        let h = Load.Driver.launch cl spec ~prepare ~request in
        fun () -> Load.Driver.result h)
  in
  r

type setup = {
  s_clients : int;
  s_requests : int;
  s_churn : bool;
  s_slo_s : float;
  s_rates : float list;
  s_cal : calibration;
}

let setup ~scale =
  (* The grid is read before the calibration run, so a malformed one
     fails fast. *)
  let grid = Knob.float_list "CCPFS_LOAD_GRID" ~default:default_grid ~above:0. in
  let n_clients = 128 and writes_each = Harness.scaled ~scale 8 in
  let cal = calibrate ~n_clients ~writes_each in
  {
    s_clients = n_clients;
    s_requests = n_clients * writes_each;
    s_churn = true;
    s_slo_s = 3. *. Stats.percentile cal.closed_lat 99.;
    s_rates = List.map (fun m -> m *. cal.cap_rps) grid;
    s_cal = cal;
  }

(* The sweep, parameterised for tests (the determinism test re-runs this
   with a fixed setup and compares the JSON rows bit-for-bit). *)
let sweep_points s =
  Load.Sweep.run
    {
      Load.Sweep.rates = s.s_rates;
      slo_s = s.s_slo_s;
      min_achieved_frac = 0.95;
      bisect_steps = 0;
    }
    ~run_rate:
      (run_point ~n_clients:s.s_clients ~requests:s.s_requests
         ~churn:s.s_churn)

let row_of s (p : Load.Sweep.point) =
  let r = p.Load.Sweep.p_result in
  let open Obs.Json in
  Obj
    [
      ("experiment", Str "load");
      ("scale", Float (Obs.Hub.scale ()));
      ("clients", Int s.s_clients);
      ("process", Str "poisson");
      ("seed", Int seed_base);
      ("requests", Int s.s_requests);
      ("xfer_bytes", Int xfer);
      ("cap_in_flight", Int (cap_of ~n_clients:s.s_clients));
      ("churn", Bool s.s_churn);
      ("slo_s", Float s.s_slo_s);
      ("offered_rate_rps", Float p.Load.Sweep.p_rate);
      ("achieved_rate_rps", Float r.Load.Driver.r_achieved_rate);
      ("goodput_Bps", Float r.Load.Driver.r_goodput_Bps);
      ("arrivals", Int r.Load.Driver.r_arrivals);
      ("completed", Int r.Load.Driver.r_completed);
      ("shed", Int r.Load.Driver.r_shed);
      ("window_s", Float r.Load.Driver.r_window_s);
      ("sojourn_p50_s", Float p.Load.Sweep.p_p50);
      ("sojourn_p99_s", Float p.Load.Sweep.p_p99);
      ("sojourn_p999_s", Float p.Load.Sweep.p_p999);
      ("violates", Bool p.Load.Sweep.p_violates);
      ("knee", Bool p.Load.Sweep.p_knee);
    ]

let results_schema = "ccpfs.load/1"
let results_path = "BENCH_load.json"

let run ~scale =
  let s = setup ~scale in
  let points = sweep_points s in
  let tbl =
    Table.create
      ~title:
        (Printf.sprintf
           "Open-loop load: poisson arrivals, %d clients, %d requests/point, \
            SLO p99 <= %s"
           s.s_clients s.s_requests
           (Units.seconds_to_string s.s_slo_s))
      ~columns:
        [ "offered/s"; "achieved/s"; "goodput"; "shed"; "p50"; "p99"; "p999";
          "knee" ]
  in
  List.iter
    (fun (p : Load.Sweep.point) ->
      let r = p.Load.Sweep.p_result in
      Table.add_row tbl
        [
          Printf.sprintf "%.1f" p.Load.Sweep.p_rate;
          Printf.sprintf "%.1f" r.Load.Driver.r_achieved_rate;
          Units.bytes_to_string (int_of_float r.Load.Driver.r_goodput_Bps) ^ "/s";
          string_of_int r.Load.Driver.r_shed;
          Units.seconds_to_string p.Load.Sweep.p_p50;
          Units.seconds_to_string p.Load.Sweep.p_p99;
          Units.seconds_to_string p.Load.Sweep.p_p999;
          (if p.Load.Sweep.p_knee then "<- knee"
           else if p.Load.Sweep.p_violates then "over"
           else "");
        ])
    points;
  let n =
    Harness.write_rows ~schema:results_schema ~path:results_path
      (List.map (row_of s) points)
  in
  Table.add_note tbl
    (Printf.sprintf
       "closed-loop capacity %.1f req/s (calibration); %d row(s) in %s"
       s.s_cal.cap_rps n results_path);
  Table.print tbl
