(* Tests for lib/load: the statistical properties of the arrival
   processes (deterministic streams, Poisson mean and gap CDF, MMPP
   dwell fractions), the Engine.at arrival hook, the open-loop driver
   (conservation, shedding, churn routing, the open-vs-closed
   differential at low load) and the double-run determinism of the
   BENCH_load.json rows. *)

open Ccpfs_util
open Ccpfs

let feq = Alcotest.(check (float 1e-12))

(* ------------------------------------------------------------------ *)
(* Engine.at                                                           *)
(* ------------------------------------------------------------------ *)

let test_engine_at () =
  let eng = Dessim.Engine.create () in
  let log = ref [] in
  Dessim.Engine.at eng ~time:2.0 (fun () ->
      log := (2, Dessim.Engine.now eng) :: !log);
  Dessim.Engine.at eng ~time:1.0 (fun () ->
      log := (1, Dessim.Engine.now eng) :: !log;
      (* installing from inside a running event is legal *)
      Dessim.Engine.at eng ~time:1.5 (fun () ->
          log := (15, Dessim.Engine.now eng) :: !log));
  (* a regular process so the run has a liveness root *)
  Dessim.Engine.spawn eng ~name:"spin" (fun () -> Dessim.Engine.sleep eng 3.0);
  Dessim.Engine.run eng;
  Alcotest.(check (list (pair int (float 0.))))
    "thunks fire in time order at their exact timestamps"
    [ (1, 1.0); (15, 1.5); (2, 2.0) ]
    (List.rev !log);
  Alcotest.check_raises "past time rejected"
    (Invalid_argument "Engine.at: time in the past or not finite")
    (fun () -> Dessim.Engine.at eng ~time:1.0 (fun () -> ()));
  Alcotest.check_raises "non-finite time rejected"
    (Invalid_argument "Engine.at: time in the past or not finite")
    (fun () -> Dessim.Engine.at eng ~time:nan (fun () -> ()))

(* ------------------------------------------------------------------ *)
(* Arrivals: determinism                                               *)
(* ------------------------------------------------------------------ *)

let processes_under_test =
  [
    ("constant", Load.Arrivals.Constant 100.);
    ("poisson", Load.Arrivals.Poisson 100.);
    ("mmpp", Load.Arrivals.bursty ~rate:100.);
  ]

let test_arrivals_deterministic () =
  List.iter
    (fun (name, proc) ->
      let a = Load.Arrivals.create ~seed:0xfeed proc in
      let b = Load.Arrivals.create ~seed:0xfeed proc in
      for k = 1 to 500 do
        let ga = Load.Arrivals.next_gap a and gb = Load.Arrivals.next_gap b in
        if ga <> gb then
          Alcotest.failf "%s: gap %d differs: %h vs %h" name k ga gb
      done;
      (* a different seed must actually change the random streams *)
      if String.equal name "constant" then ()
      else begin
        let c = Load.Arrivals.create ~seed:0xbeef proc in
        let differs = ref false in
        let a' = Load.Arrivals.create ~seed:0xfeed proc in
        for _ = 1 to 50 do
          if Load.Arrivals.next_gap a' <> Load.Arrivals.next_gap c then
            differs := true
        done;
        Alcotest.(check bool) (name ^ ": seeds separate streams") true !differs
      end)
    processes_under_test

let test_arrivals_times () =
  List.iter
    (fun (name, proc) ->
      let ts = Load.Arrivals.times ~seed:7 proc ~n:200 in
      Alcotest.(check int) (name ^ ": n times") 200 (Array.length ts);
      for k = 1 to 199 do
        if not (ts.(k) >= ts.(k - 1)) then
          Alcotest.failf "%s: times not monotone at %d" name k
      done;
      if not (ts.(0) > 0.) then Alcotest.failf "%s: first time not positive" name;
      (* bit-identical to the prefix sums of a fresh stream *)
      let s = Load.Arrivals.create ~seed:7 proc in
      let acc = ref 0. in
      for k = 0 to 199 do
        acc := !acc +. Load.Arrivals.next_gap s;
        if ts.(k) <> !acc then Alcotest.failf "%s: times diverge at %d" name k
      done)
    processes_under_test

let test_arrivals_validation () =
  List.iter
    (fun bad ->
      match Load.Arrivals.create ~seed:1 bad with
      | _ -> Alcotest.fail "invalid process accepted"
      | exception Invalid_argument _ -> ())
    [
      Load.Arrivals.Constant 0.;
      Load.Arrivals.Poisson (-1.);
      Load.Arrivals.Poisson infinity;
      Load.Arrivals.Mmpp { rate0 = 1.; rate1 = 0.; dwell0 = 1.; dwell1 = 1. };
      Load.Arrivals.Mmpp { rate0 = 1.; rate1 = 1.; dwell0 = -1.; dwell1 = 1. };
    ]

let test_mean_rate () =
  feq "constant" 80. (Load.Arrivals.mean_rate (Load.Arrivals.Constant 80.));
  feq "poisson" 80. (Load.Arrivals.mean_rate (Load.Arrivals.Poisson 80.));
  (* dwell-weighted average *)
  feq "mmpp"
    ((2. *. 10.) +. (8. *. 40.))
    (10. *. Load.Arrivals.mean_rate
              (Load.Arrivals.Mmpp
                 { rate0 = 10.; rate1 = 40.; dwell0 = 2.; dwell1 = 8. }));
  (* the bursty helper's time-average equals its nominal rate *)
  Alcotest.(check (float 1e-9))
    "bursty mean" 123.
    (Load.Arrivals.mean_rate (Load.Arrivals.bursty ~rate:123.));
  (* of_string round-trips the names *)
  List.iter
    (fun name ->
      match Load.Arrivals.of_string ~rate:10. name with
      | Some p ->
          Alcotest.(check string) name name (Load.Arrivals.to_string p)
      | None -> Alcotest.failf "of_string %s" name)
    [ "constant"; "poisson"; "mmpp" ];
  Alcotest.(check bool) "unknown name" true
    (Option.is_none (Load.Arrivals.of_string ~rate:10. "weibull"))

(* ------------------------------------------------------------------ *)
(* Arrivals: statistics                                                *)
(* ------------------------------------------------------------------ *)

(* Empirical mean of Poisson inter-arrival gaps: for n draws the sample
   mean of Exp(lambda) is within ~4 standard errors (4/(lambda sqrt n))
   of 1/lambda essentially always; a seeded stream makes this exact
   rather than flaky. *)
let prop_poisson_mean =
  let open QCheck in
  Test.make ~name:"poisson gaps have empirical mean ~ 1/lambda" ~count:40
    (make
       ~print:Print.(pair int (float))
       Gen.(pair (int_bound 1_000_000) (float_range 0.5 5000.)))
    (fun (seed, lambda) ->
      let n = 4000 in
      let s = Load.Arrivals.create ~seed (Load.Arrivals.Poisson lambda) in
      let sum = ref 0. in
      for _ = 1 to n do
        sum := !sum +. Load.Arrivals.next_gap s
      done;
      let mean = !sum /. float_of_int n in
      let se = 1. /. (lambda *. sqrt (float_of_int n)) in
      Float.abs (mean -. (1. /. lambda)) < 4. *. se)

(* Coarse CDF check at the deciles: the empirical fraction of gaps below
   the Exp(lambda) q-quantile -ln(1-q)/lambda must be within a few
   standard errors of q — this pins the distribution's shape, not just
   its mean (a constant stream passes the mean test; it fails this). *)
let prop_poisson_gap_cdf =
  let open QCheck in
  Test.make ~name:"poisson gaps pass a decile CDF check" ~count:25
    (make
       ~print:Print.(pair int (float))
       Gen.(pair (int_bound 1_000_000) (float_range 0.5 5000.)))
    (fun (seed, lambda) ->
      let n = 4000 in
      let s = Load.Arrivals.create ~seed (Load.Arrivals.Poisson lambda) in
      let gaps = Array.make n 0. in
      for i = 0 to n - 1 do
        gaps.(i) <- Load.Arrivals.next_gap s
      done;
      List.for_all
        (fun q ->
          let quantile = -.log (1. -. q) /. lambda in
          let below = ref 0 in
          Array.iter (fun g -> if g < quantile then incr below) gaps;
          let frac = float_of_int !below /. float_of_int n in
          (* binomial std error sqrt(q(1-q)/n) <= 0.0079 at n=4000 *)
          let se = sqrt (q *. (1. -. q) /. float_of_int n) in
          Float.abs (frac -. q) < 5. *. se)
        [ 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9 ])

(* A constant stream must fail the shape check the Poisson stream
   passes — all its mass sits at exactly 1/rate. *)
let test_constant_gaps_degenerate () =
  let s = Load.Arrivals.create ~seed:3 (Load.Arrivals.Constant 50.) in
  for _ = 1 to 100 do
    feq "gap" (1. /. 50.) (Load.Arrivals.next_gap s)
  done

(* MMPP dwell accounting: the fraction of stream time spent in each
   state converges to dwell_i / (dwell0 + dwell1), and the long-run
   arrival rate to the dwell-weighted mean.  Asymmetric dwells make the
   check discriminating. *)
let prop_mmpp_dwell =
  let open QCheck in
  Test.make ~name:"mmpp dwell fractions match the modulation matrix"
    ~count:25
    (make ~print:Print.int Gen.(int_bound 1_000_000))
    (fun seed ->
      let proc =
        Load.Arrivals.Mmpp
          { rate0 = 40.; rate1 = 400.; dwell0 = 0.3; dwell1 = 0.1 }
      in
      let s = Load.Arrivals.create ~seed proc in
      let n = 30_000 in
      let clock = ref 0. in
      for _ = 1 to n do
        clock := !clock +. Load.Arrivals.next_gap s
      done;
      let t0 = Load.Arrivals.state_time s 0
      and t1 = Load.Arrivals.state_time s 1 in
      (* the stream's own clock decomposes exactly into the two states *)
      if Float.abs (t0 +. t1 -. !clock) > 1e-6 *. !clock then false
      else begin
        let frac0 = t0 /. (t0 +. t1) in
        let expect0 = 0.3 /. (0.3 +. 0.1) in
        let visits = Load.Arrivals.state_visits s 0 in
        let rate = float_of_int n /. !clock in
        let expect_rate = Load.Arrivals.mean_rate proc in
        (* ~n/expected-arrivals-per-cycle modulation cycles; 10%
           tolerance holds with margin at these sample sizes *)
        Float.abs (frac0 -. expect0) < 0.1
        && visits > 10
        && Float.abs ((rate /. expect_rate) -. 1.) < 0.15
      end)

let test_mmpp_state_visits_fresh () =
  let s = Load.Arrivals.create ~seed:5 (Load.Arrivals.bursty ~rate:10.) in
  Alcotest.(check int) "fresh stream is in state 0" 0 (Load.Arrivals.state s);
  Alcotest.(check int) "state 0 entered once" 1 (Load.Arrivals.state_visits s 0);
  Alcotest.(check int) "state 1 not yet" 0 (Load.Arrivals.state_visits s 1);
  feq "no time accumulated" 0.
    (Load.Arrivals.state_time s 0 +. Load.Arrivals.state_time s 1)

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let xfer = 4 * Units.kib

let mk_cluster ~n_clients = Cluster.create ~n_servers:1 ~n_clients ()

let drive_cluster ?(churn = []) ?(cap = 1024) ?(seed = 42) ~n_clients ~requests
    ~rate process =
  let cl = mk_cluster ~n_clients in
  let proc = Option.get (Load.Arrivals.of_string ~rate process) in
  let spec =
    Load.Driver.
      {
        process = proc;
        seed;
        requests;
        max_in_flight = cap;
        churn;
        start_at = 0.;
      }
  in
  let h =
    Load.Driver.launch cl spec
      ~prepare:(fun c -> (c, Client.open_file c ~create:true "/t"))
      ~request:(fun (c, f) k ->
        Client.write c f ~off:(k mod 8 * xfer) ~len:xfer;
        xfer)
  in
  Dessim.Engine.run (Cluster.engine cl);
  Cluster.fsync_all cl;
  Cluster.check_invariants cl;
  (cl, Load.Driver.result h)

let drive ?churn ?cap ?seed ~n_clients ~requests ~rate process =
  snd (drive_cluster ?churn ?cap ?seed ~n_clients ~requests ~rate process)

(* Conservation + accounting identities that hold for every run. *)
let check_accounting (r : Load.Driver.result) ~requests =
  Alcotest.(check int) "arrivals" requests r.Load.Driver.r_arrivals;
  Alcotest.(check int) "completed + shed = arrivals" requests
    (r.Load.Driver.r_completed + r.Load.Driver.r_shed);
  Alcotest.(check int) "sojourn samples = completed"
    r.Load.Driver.r_completed
    (Stats.count r.Load.Driver.r_sojourn);
  Alcotest.(check int) "per-client assignments = completed"
    r.Load.Driver.r_completed
    (Array.fold_left ( + ) 0 r.Load.Driver.r_per_client)

let test_driver_low_load_open_eq_offered () =
  (* far below capacity: nothing sheds, the achieved rate equals the
     offered rate up to the final-completion edge effect *)
  let requests = 400 in
  let r = drive ~n_clients:4 ~requests ~rate:100. "poisson" in
  check_accounting r ~requests;
  Alcotest.(check int) "nothing shed" 0 r.Load.Driver.r_shed;
  let ratio = r.Load.Driver.r_achieved_rate /. r.Load.Driver.r_offered_rate in
  if not (ratio > 0.98 && ratio <= 1.0) then
    Alcotest.failf "achieved/offered = %.4f not in (0.98, 1]" ratio

(* The open-vs-closed differential: at negligible utilisation the
   open-loop sojourn of a single client matches the closed-loop latency
   of the same request shape — queueing adds nothing, so the two
   methodologies must agree before they diverge under load. *)
let test_driver_differential_closed_loop () =
  let requests = 50 in
  (* closed loop: one client, one write after another *)
  let cl = mk_cluster ~n_clients:1 in
  let closed = Stats.create () in
  Cluster.spawn_client cl 0 ~name:"closed" (fun c ->
      let f = Client.open_file c ~create:true "/t" in
      for k = 0 to requests - 1 do
        let t0 = Cluster.now cl in
        Client.write c f ~off:(k mod 8 * xfer) ~len:xfer;
        Stats.add closed (Cluster.now cl -. t0)
      done);
  Dessim.Engine.run (Cluster.engine cl);
  (* open loop at ~1% utilisation of the just-measured service rate *)
  let service = Stats.mean closed in
  let rate = 0.01 /. service in
  let r = drive ~n_clients:1 ~requests ~rate "poisson" in
  check_accounting r ~requests;
  let open_mean = Stats.mean r.Load.Driver.r_sojourn in
  let ratio = open_mean /. service in
  if not (ratio > 0.9 && ratio < 1.1) then
    Alcotest.failf
      "open-loop mean sojourn %.3e vs closed-loop latency %.3e (ratio %.3f)"
      open_mean service ratio;
  let ar = r.Load.Driver.r_achieved_rate /. r.Load.Driver.r_offered_rate in
  if not (ar > 0.98 && ar <= 1.0) then
    Alcotest.failf "low-load achieved/offered = %.4f" ar

let test_driver_sheds_above_cap () =
  (* cap 1 with a deliberately saturating rate: most arrivals find the
     backlog full and are shed; the rest complete; nothing is lost *)
  let requests = 200 in
  let r = drive ~cap:1 ~n_clients:2 ~requests ~rate:1e6 "constant" in
  check_accounting r ~requests;
  Alcotest.(check bool) "some arrivals shed" true (r.Load.Driver.r_shed > 0);
  Alcotest.(check bool) "some arrivals served" true
    (r.Load.Driver.r_completed > 0);
  (* achieved <= offered holds by construction even past saturation *)
  Alcotest.(check bool) "achieved <= offered" true
    (r.Load.Driver.r_achieved_rate <= r.Load.Driver.r_offered_rate)

let test_driver_churn_routing () =
  (* client 0 leaves before the first arrival and never returns: it must
     receive no work; the others absorb the full stream *)
  let requests = 120 in
  let churn =
    [ Load.Driver.{ ch_at = 0.; ch_client = 0; ch_up = false } ]
  in
  let r = drive ~churn ~n_clients:3 ~requests ~rate:200. "poisson" in
  check_accounting r ~requests;
  Alcotest.(check int) "nothing shed" 0 r.Load.Driver.r_shed;
  Alcotest.(check int) "down client got nothing" 0
    r.Load.Driver.r_per_client.(0);
  Alcotest.(check bool) "others balanced the stream" true
    (r.Load.Driver.r_per_client.(1) > 0 && r.Load.Driver.r_per_client.(2) > 0)

let test_driver_churn_rejoin () =
  (* leave at a third of the window, rejoin at two thirds: the client
     serves strictly less than a fair share but more than nothing *)
  let requests = 600 in
  let rate = 300. in
  let span = float_of_int requests /. rate in
  let churn =
    Load.Driver.
      [
        { ch_at = span /. 3.; ch_client = 0; ch_up = false };
        { ch_at = 2. *. span /. 3.; ch_client = 0; ch_up = true };
      ]
  in
  let r = drive ~churn ~n_clients:3 ~requests ~rate "poisson" in
  check_accounting r ~requests;
  let got = r.Load.Driver.r_per_client.(0) in
  let fair = requests / 3 in
  if not (got > 0 && got < fair) then
    Alcotest.failf "churned client served %d of fair share %d" got fair

let test_driver_all_down_sheds () =
  (* every client gone: all arrivals shed, none lost, run terminates *)
  let requests = 30 in
  let churn =
    [
      Load.Driver.{ ch_at = 0.; ch_client = 0; ch_up = false };
      Load.Driver.{ ch_at = 0.; ch_client = 1; ch_up = false };
    ]
  in
  let r = drive ~churn ~n_clients:2 ~requests ~rate:100. "constant" in
  check_accounting r ~requests;
  Alcotest.(check int) "all shed" requests r.Load.Driver.r_shed

(* The event stream of an open-loop run whose whole arrival schedule
   sits in the engine's queue before the first dispatch: thousands of
   pending [Engine.at] events, with the workers' sleeps and RPC couriers
   interleaved among them.  The pinned count and fingerprint were taken
   from the option-array heap the engine used before its parallel-array
   queue; any change to dispatch order moves the fingerprint. *)
let test_driver_event_stream_pin () =
  let requests = 3000 in
  let cl, r =
    drive_cluster ~cap:64 ~n_clients:8 ~requests ~rate:20_000. "poisson"
  in
  check_accounting r ~requests;
  let eng = Cluster.engine cl in
  Alcotest.(check int) "engine events" 12499 (Dessim.Engine.events_dispatched eng);
  Alcotest.(check int64) "engine fingerprint" 991299364418519745L
    (Dessim.Engine.fingerprint eng)

(* A replicated (f = 1) two-server open-loop run: 1,200 arrivals
   installed in time order, then one churn event earlier than the last
   of them, so in-order and out-of-order [Engine.at] events, worker
   sleeps, RPC couriers and grant-log shipping all interleave in the
   queue.  The count and fingerprint were taken when grant-log shipping
   became one batched Append in flight per backup; the engine's index
   heap and arrival lane had kept the earlier pin bit-identical. *)
let test_driver_replicated_stream_pin () =
  let requests = 1200 and rate = 20_000. in
  let config = Config.with_replication 1 Config.default in
  let cl = Cluster.create ~config ~n_servers:2 ~n_clients:6 () in
  let proc = Option.get (Load.Arrivals.of_string ~rate "poisson") in
  let span = float_of_int requests /. rate in
  let spec =
    Load.Driver.
      {
        process = proc;
        seed = 7;
        requests;
        max_in_flight = 48;
        churn = [ { ch_at = span /. 2.; ch_client = 1; ch_up = false } ];
        start_at = 0.;
      }
  in
  let h =
    Load.Driver.launch cl spec
      ~prepare:(fun c -> (c, Client.open_file c ~create:true "/r"))
      ~request:(fun (c, f) k ->
        Client.write c f ~off:(k mod 16 * xfer) ~len:xfer;
        xfer)
  in
  let eng = Cluster.engine cl in
  Dessim.Engine.run eng;
  Cluster.fsync_all cl;
  Cluster.check_invariants cl;
  check_accounting (Load.Driver.result h) ~requests;
  Alcotest.(check int) "engine events" 52578 (Dessim.Engine.events_dispatched eng);
  Alcotest.(check int64) "engine fingerprint" (-936425295871115874L)
    (Dessim.Engine.fingerprint eng)

let test_driver_validation () =
  let cl = mk_cluster ~n_clients:2 in
  let spec requests max_in_flight churn =
    Load.Driver.
      {
        process = Load.Arrivals.Poisson 10.;
        seed = 1;
        requests;
        max_in_flight;
        churn;
        start_at = 0.;
      }
  in
  let launch s =
    ignore
      (Load.Driver.launch cl s
         ~prepare:(fun c -> c)
         ~request:(fun _ _ -> 0))
  in
  List.iter
    (fun s ->
      match launch s with
      | () -> Alcotest.fail "invalid spec accepted"
      | exception Invalid_argument _ -> ())
    [
      spec (-1) 4 [];
      spec 4 0 [];
      spec 4 4 [ Load.Driver.{ ch_at = 0.; ch_client = 9; ch_up = false } ];
      spec 4 4 [ Load.Driver.{ ch_at = -1.; ch_client = 0; ch_up = false } ];
    ]

(* ------------------------------------------------------------------ *)
(* Sweep                                                               *)
(* ------------------------------------------------------------------ *)

(* A synthetic run_rate with a hard capacity: below it sojourns are
   tiny, above it the backlog overhang inflates the window (achieved <
   offered) and the percentiles blow up — the sweep must place the knee
   at the first rate past capacity, and bisection must tighten toward
   it without moving the knee flag off the lowest violating point. *)
let synthetic_run_rate ~capacity rate =
  let requests = 100 in
  let sojourn = Stats.create () in
  let base = if rate <= capacity then 1e-4 else 0.5 /. capacity in
  for k = 1 to requests do
    Stats.add sojourn (base *. (1. +. (float_of_int k /. 1e4)))
  done;
  let span = float_of_int requests /. rate in
  let overhang = if rate <= capacity then 0. else span *. (rate /. capacity -. 1.) in
  let window = span +. overhang in
  Load.Driver.
    {
      r_offered_rate = rate;
      r_arrivals = requests;
      r_completed = requests;
      r_shed = 0;
      r_window_s = window;
      r_achieved_rate = float_of_int requests /. window;
      r_goodput_Bps = 0.;
      r_sojourn = sojourn;
      r_per_client = [| requests |];
    }

let test_sweep_knee () =
  let capacity = 100. in
  let cfg =
    Load.Sweep.
      {
        rates = [ 25.; 50.; 75.; 110.; 140. ];
        slo_s = 1e-2;
        min_achieved_frac = 0.95;
        bisect_steps = 0;
      }
  in
  let points = Load.Sweep.run cfg ~run_rate:(synthetic_run_rate ~capacity) in
  Alcotest.(check int) "one point per rate" 5 (List.length points);
  (match Load.Sweep.knee points with
  | None -> Alcotest.fail "no knee found"
  | Some k -> feq "knee at first rate past capacity" 110. k.Load.Sweep.p_rate);
  List.iter
    (fun (p : Load.Sweep.point) ->
      Alcotest.(check bool)
        (Printf.sprintf "violation iff past capacity (rate %g)" p.Load.Sweep.p_rate)
        (p.Load.Sweep.p_rate > capacity)
        p.Load.Sweep.p_violates)
    points

let test_sweep_bisect () =
  let capacity = 100. in
  let cfg =
    Load.Sweep.
      {
        rates = [ 50.; 150. ];
        slo_s = 1e-2;
        min_achieved_frac = 0.95;
        bisect_steps = 3;
      }
  in
  let points = Load.Sweep.run cfg ~run_rate:(synthetic_run_rate ~capacity) in
  Alcotest.(check int) "grid + bisection points" 5 (List.length points);
  (* rates ascend and the knee is the lowest violating rate *)
  let rec ascending = function
    | a :: (b :: _ as tl) -> a.Load.Sweep.p_rate <= b.Load.Sweep.p_rate && ascending tl
    | _ -> true
  in
  Alcotest.(check bool) "points sorted by rate" true (ascending points);
  match Load.Sweep.knee points with
  | None -> Alcotest.fail "no knee found"
  | Some k ->
      List.iter
        (fun (p : Load.Sweep.point) ->
          if p.Load.Sweep.p_violates && p.Load.Sweep.p_rate < k.Load.Sweep.p_rate
          then Alcotest.fail "knee is not the lowest violating rate")
        points;
      (* three bisection steps on (50, 150) tighten the bracket to
         within 12.5 of the capacity *)
      Alcotest.(check bool)
        (Printf.sprintf "bisected knee %g within 12.5 of capacity"
           k.Load.Sweep.p_rate)
        true
        (k.Load.Sweep.p_rate > capacity
        && k.Load.Sweep.p_rate <= capacity +. 12.5)

let test_sweep_no_knee () =
  let cfg =
    Load.Sweep.
      {
        rates = [ 10.; 20. ];
        slo_s = 1e-2;
        min_achieved_frac = 0.95;
        bisect_steps = 2;
      }
  in
  let points = Load.Sweep.run cfg ~run_rate:(synthetic_run_rate ~capacity:100.) in
  Alcotest.(check int) "no bisection without a violation" 2 (List.length points);
  Alcotest.(check bool) "no knee" true (Option.is_none (Load.Sweep.knee points))

(* ------------------------------------------------------------------ *)
(* exp_load: double-run determinism of the benchmark rows              *)
(* ------------------------------------------------------------------ *)

(* The acceptance criterion for BENCH_load.json: the same seed must
   reproduce identical rows — run the real sweep (real clusters, the
   real experiment row encoder) twice and compare the JSON bit for
   bit.  Small scale: 8 clients, 2 rates. *)
let test_exp_load_rows_deterministic () =
  let setup =
    Experiments.Exp_load.
      {
        s_clients = 8;
        s_requests = 64;
        s_churn = true;
        s_slo_s = 5e-3;
        s_rates = [ 400.; 4000. ];
        s_cal = { cap_rps = 1000.; closed_lat = Stats.create () };
      }
  in
  let rows () =
    Experiments.Exp_load.sweep_points setup
    |> List.map (fun p ->
           Obs.Json.to_string (Experiments.Exp_load.row_of setup p))
  in
  let a = rows () and b = rows () in
  Alcotest.(check (list string)) "identical rows across runs" a b;
  Alcotest.(check int) "one row per rate" 2 (List.length a)

(* The committed-artifact invariants CI enforces on every row, checked
   here on a live sweep: achieved <= offered and p50 <= p99 <= p999. *)
let test_exp_load_row_invariants () =
  let setup =
    Experiments.Exp_load.
      {
        s_clients = 8;
        s_requests = 96;
        s_churn = false;
        s_slo_s = 5e-3;
        s_rates = [ 500.; 2000.; 8000. ];
        s_cal = { cap_rps = 1000.; closed_lat = Stats.create () };
      }
  in
  let points = Experiments.Exp_load.sweep_points setup in
  List.iter
    (fun (p : Load.Sweep.point) ->
      let r = p.Load.Sweep.p_result in
      Alcotest.(check bool) "achieved <= offered" true
        (r.Load.Driver.r_achieved_rate <= p.Load.Sweep.p_rate);
      Alcotest.(check bool) "p50 <= p99 <= p999" true
        (p.Load.Sweep.p_p50 <= p.Load.Sweep.p_p99
        && p.Load.Sweep.p_p99 <= p.Load.Sweep.p_p999))
    points

let suite =
  let q = QCheck_alcotest.to_alcotest ~rand:(Fuzz.Seed.rand_state ()) in
  [
    ( "load.arrivals",
      [
        Alcotest.test_case "Engine.at hook" `Quick test_engine_at;
        Alcotest.test_case "same seed, bit-identical stream" `Quick
          test_arrivals_deterministic;
        Alcotest.test_case "times = prefix sums" `Quick test_arrivals_times;
        Alcotest.test_case "invalid processes rejected" `Quick
          test_arrivals_validation;
        Alcotest.test_case "mean_rate and names" `Quick test_mean_rate;
        Alcotest.test_case "constant gaps degenerate" `Quick
          test_constant_gaps_degenerate;
        Alcotest.test_case "fresh mmpp introspection" `Quick
          test_mmpp_state_visits_fresh;
        q prop_poisson_mean;
        q prop_poisson_gap_cdf;
        q prop_mmpp_dwell;
      ] );
    ( "load.driver",
      [
        Alcotest.test_case "low load: achieved ~ offered" `Quick
          test_driver_low_load_open_eq_offered;
        Alcotest.test_case "open matches closed loop at low load" `Quick
          test_driver_differential_closed_loop;
        Alcotest.test_case "backlog cap sheds, loses nothing" `Quick
          test_driver_sheds_above_cap;
        Alcotest.test_case "churned-out client gets no work" `Quick
          test_driver_churn_routing;
        Alcotest.test_case "leave then rejoin serves a partial share" `Quick
          test_driver_churn_rejoin;
        Alcotest.test_case "all clients down: everything sheds" `Quick
          test_driver_all_down_sheds;
        Alcotest.test_case "spec validation" `Quick test_driver_validation;
        Alcotest.test_case "event stream pinned, 3k queued arrivals" `Quick
          test_driver_event_stream_pin;
        Alcotest.test_case "event stream pinned, replicated + churn" `Quick
          test_driver_replicated_stream_pin;
      ] );
    ( "load.sweep",
      [
        Alcotest.test_case "knee at first violating rate" `Quick
          test_sweep_knee;
        Alcotest.test_case "bisection tightens the knee" `Quick
          test_sweep_bisect;
        Alcotest.test_case "no violation, no knee" `Quick test_sweep_no_knee;
        Alcotest.test_case "BENCH_load rows are double-run identical" `Quick
          test_exp_load_rows_deterministic;
        Alcotest.test_case "row invariants: achieved and percentiles" `Quick
          test_exp_load_row_invariants;
      ] );
  ]
