(* The benchmark's four workloads and one measured repetition of each.

   Everything here drives the simulator through its public API only:
   build a cluster, materialise the inputs, run the engine to the end of
   the final flush, then read results and check them.  Host time is
   split at the first [Engine.run]: before it is set-up (cluster
   creation, access lists, arrival schedule, process spawns), after it
   is the simulation itself, up to the end of [Cluster.fsync_all]. *)

open Ccpfs_util
open Ccpfs

type name = Ior_strided | Ior_segmented | Pw_convoy | Open_mixed

let all = [ Ior_strided; Ior_segmented; Pw_convoy; Open_mixed ]

let to_string = function
  | Ior_strided -> "ior-strided"
  | Ior_segmented -> "ior-segmented"
  | Pw_convoy -> "pw-convoy"
  | Open_mixed -> "open-mixed"

let of_string s = List.find_opt (fun w -> String.equal (to_string w) s) all

(* [Smoke] shrinks every workload a hundredfold or more, so a per-byte
   shadow check of the shared file stays cheap in time and memory. *)
type size = Full | Smoke

let size_to_string = function Full -> "full" | Smoke -> "smoke"

let size_of_string = function
  | "full" -> Some Full
  | "smoke" -> Some Smoke
  | _ -> None

let xfer = 64 * Units.kib

(* Seeded think time before each convoy write, excluded from its
   latency: real clients never arrive in lockstep, and without it a
   symmetric convoy gives bit-identical latency samples (the exp_scale
   convention).  IOR ranks start together, as after IOR's barrier: a
   start jitter flips ior-strided between two regimes whose host time
   differs fivefold, so the IOR inputs do not depend on the seed. *)
let think_span = 50e-6

type ior = {
  pattern : Workloads.Access.pattern;
  ranks : int;
  per_rank : int;  (** bytes each rank writes *)
}

type convoy = { writers : int; writes_each : int }

type mixed = {
  clients : int;
  servers : int;
  stripes : int;
  stripe_size : int;
  span : int;  (** file bytes the uniform half of the offsets covers *)
  hot : int;  (** the hot region [0, hot) the other half falls in *)
  rate : float;  (** offered Poisson arrivals per second *)
  arrivals : int;
  cap : int;  (** in-flight cap: later arrivals are shed *)
  replication : int;
}

type shape = Ior of ior | Convoy of convoy | Mixed of mixed

let mixed = function
  | Full ->
      {
        clients = 64; servers = 4; stripes = 16; stripe_size = Units.mib;
        span = 64 * Units.mib; hot = Units.mib; rate = 70_000.;
        arrivals = 40_000; cap = 256; replication = 1;
      }
  | Smoke ->
      {
        clients = 16; servers = 4; stripes = 16; stripe_size = 64 * Units.kib;
        span = 4 * Units.mib; hot = 256 * Units.kib; rate = 70_000.;
        arrivals = 400; cap = 256; replication = 1;
      }

let shape name size =
  let ior pattern per_rank = Ior { pattern; ranks = 16; per_rank } in
  match (name, size) with
  | Ior_strided, Full -> ior Workloads.Access.N1_strided (60 * Units.mib)
  | Ior_strided, Smoke -> ior Workloads.Access.N1_strided (512 * Units.kib)
  | Ior_segmented, Full -> ior Workloads.Access.N1_segmented Units.gib
  | Ior_segmented, Smoke -> ior Workloads.Access.N1_segmented (512 * Units.kib)
  | Pw_convoy, Full -> Convoy { writers = 1024; writes_each = 64 }
  | Pw_convoy, Smoke -> Convoy { writers = 32; writes_each = 8 }
  | Open_mixed, size -> Mixed (mixed size)

(* Every knob the environment could otherwise reach ([CCPFS_BATCH],
   [CCPFS_REPL]) is pinned here, so the measured program is the same
   whatever the caller's shell exports. *)
let fresh_cluster ?(servers = 1) ?(replication = 0) ~clients () =
  let config =
    Config.default |> Config.with_batching ~k:0
    |> Config.with_replication replication
  in
  Cluster.create ~config ~policy:Seqdlm.Policy.seqdlm ~n_servers:servers
    ~n_clients:clients ()

(* Simulated-time results: a pure function of workload, size and seed. *)
type sim = {
  events : int;
  fingerprint : int64;
  ops : int;
  bytes : int;
  goodput_Bps : float;
  ops_per_s : float;
  io_s : float;
  lat_p50_s : float;
  lat_p999_s : float;
  lat_samples : int;
}

(* Host-side measurements of one repetition. *)
type host = {
  setup_s : float;
  host_s : float;
  minor_words : float;  (** allocated during the simulation *)
  major_collections : int;
  heap_peak_words : int;
}

type rep = {
  cl : Cluster.t;
  file : Client.file;
  host : host;
  sim : sim;
  attempted : int;
  failed : int;  (** shed or failed operations *)
  load : Load.Driver.result option;
  errors : string list;  (** failed correctness checks *)
}

let host_now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Run the engine to the end of the final flush; [t0] is when set-up
   started. *)
let simulate ~t0 cl =
  let g1 = Gc.quick_stat () in
  let t1 = host_now () in
  Cluster.run cl;
  Cluster.fsync_all cl;
  let t2 = host_now () in
  let g2 = Gc.quick_stat () in
  {
    setup_s = t1 -. t0;
    host_s = t2 -. t1;
    minor_words = g2.Gc.minor_words -. g1.Gc.minor_words;
    major_collections = g2.Gc.major_collections - g1.Gc.major_collections;
    heap_peak_words = g2.Gc.top_heap_words;
  }

let percentile lat p = if Stats.count lat = 0 then 0. else Stats.percentile lat p

(* The middle value, or the mean of the two middle ones, as Python's
   [statistics.median] gives it: the benchmark's spread rule is stated
   in its terms.  [Stats.percentile] is nearest-rank instead. *)
let median l =
  let a = Array.of_list (List.sort Float.compare l) in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* [window] is the PIO phase of a closed loop, the measurement window of
   [Load.Driver] for an open one. *)
let sim_of cl ~ops ~bytes ~window ~lat =
  let eng = Cluster.engine cl in
  {
    events = Dessim.Engine.events_dispatched eng;
    fingerprint = Dessim.Engine.fingerprint eng;
    ops;
    bytes;
    goodput_Bps = float_of_int bytes /. window;
    ops_per_s = float_of_int ops /. window;
    io_s = Cluster.now cl;
    lat_p50_s = percentile lat 50.;
    lat_p999_s = percentile lat 99.9;
    lat_samples = Stats.count lat;
  }

let fold_clients cl f init =
  let acc = ref init in
  for i = 0 to Cluster.n_clients cl - 1 do
    acc := f !acc (Cluster.client cl i)
  done;
  !acc

let sum_clients cl f = fold_clients cl (fun a c -> a + f c) 0

(* Correctness checks append a message on failure.  The lock-server
   invariant sweep is quadratic in cached grants (seconds on
   ior-strided), so callers run it on one repetition per run; the
   determinism check proves the others replayed the same events. *)
let check errors cond msg = if not cond then errors := msg :: !errors

let check_invariants errors cl =
  match Cluster.check_invariants cl with
  | () -> ()
  | exception e ->
      errors := ("lock-server invariants: " ^ Printexc.to_string e) :: !errors

(* IOR's N-1 patterns never overlap, so every byte of the shared file
   must hold exactly the transfer its rank wrote there. *)
let check_ior_contents errors cl file (w : ior) ~blocks =
  let owner block =
    match w.pattern with
    | Workloads.Access.N1_strided -> block mod w.ranks
    | Workloads.Access.N1_segmented | Workloads.Access.N_n -> block / blocks
  in
  let segs =
    Content.read
      (Cluster.stripe_contents cl file ~stripe:0)
      (Interval.v ~lo:0 ~hi:(w.ranks * blocks * xfer))
  in
  let bad =
    List.filter
      (fun ((iv : Interval.t), tag) ->
        match tag with
        | None -> true
        | Some (tg : Content.tag) ->
            let b = iv.lo / xfer in
            (iv.hi - 1) / xfer <> b || tg.Content.writer <> owner b)
      segs
  in
  check errors (List.length bad = 0)
    (Printf.sprintf "device contents: %d segment(s) hold a hole or the wrong writer"
       (List.length bad))

(* The closed-loop workloads share one loop: client [i] runs
   [body i], PIO ends when the last writer returns (flushing still in
   flight then belongs to the F phase), and the final fsync closes the
   run. *)
let run_closed ~instrument ~t0 ~path ~seed cl body =
  instrument cl;
  let lat = Stats.create () in
  let pio_end = ref 0. in
  let file = ref None in
  let root_rng = Det_random.create ~seed in
  for i = 0 to Cluster.n_clients cl - 1 do
    let rng = Det_random.split root_rng in
    Cluster.spawn_client cl i ~name:(Printf.sprintf "w%d" i) (fun c ->
        let f = Client.open_file c ~create:true path in
        if i = 0 then file := Some f;
        body i ~rng ~lat c f;
        if Cluster.now cl > !pio_end then pio_end := Cluster.now cl)
  done;
  let host = simulate ~t0 cl in
  (Option.get !file, lat, !pio_end, host)

let timed_write cl lat f =
  let s = Cluster.now cl in
  f ();
  Stats.add lat (Cluster.now cl -. s)

let run_ior ~instrument ~full_check ~seed (w : ior) =
  let t0 = host_now () in
  let cl = fresh_cluster ~clients:w.ranks () in
  let blocks = Workloads.Ior.blocks_for_total ~total:w.per_rank ~xfer in
  let streams =
    Array.init w.ranks (fun rank ->
        Workloads.Ior.accesses ~pattern:w.pattern ~nprocs:w.ranks ~rank ~xfer
          ~blocks)
  in
  let file, lat, pio, host =
    run_closed ~instrument ~t0 ~path:"/ior" ~seed cl
      (fun i ~rng:_ ~lat c f ->
        List.iter
          (fun (a : Workloads.Access.t) ->
            timed_write cl lat (fun () -> Client.write c f ~off:a.off ~len:a.len))
          streams.(i))
  in
  let ops = sum_clients cl Client.ops and issued = w.ranks * blocks in
  let bytes = Cluster.total_bytes_written cl in
  let errors = ref [] in
  if full_check then check_invariants errors cl;
  check errors (ops = issued)
    (Printf.sprintf "ops: %d completed, %d issued" ops issued);
  check errors
    (Cluster.total_disk_bytes cl = bytes)
    (Printf.sprintf "device bytes %d <> client-written bytes %d"
       (Cluster.total_disk_bytes cl) bytes);
  let discarded = (Data_server.stats (Cluster.data_server cl 0)).bytes_discarded in
  check errors (discarded = 0)
    (Printf.sprintf "data server discarded %d bytes of a non-overlapping pattern"
       discarded);
  check_ior_contents errors cl file w ~blocks;
  {
    cl; file; host; sim = sim_of cl ~ops ~bytes ~window:pio ~lat;
    attempted = issued; failed = 0; load = None; errors = !errors;
  }

let run_convoy ~instrument ~full_check ~seed (w : convoy) =
  let t0 = host_now () in
  let cl = fresh_cluster ~clients:w.writers () in
  let eng = Cluster.engine cl in
  let file, lat, pio, host =
    run_closed ~instrument ~t0 ~path:"/convoy" ~seed cl
      (fun _ ~rng ~lat c f ->
        for _ = 1 to w.writes_each do
          Dessim.Engine.sleep eng (Det_random.float rng think_span);
          timed_write cl lat (fun () ->
              Client.write ~mode:Seqdlm.Mode.PW ~lock_whole_range:true c f
                ~off:0 ~len:xfer)
        done)
  in
  let ops = sum_clients cl Client.ops and issued = w.writers * w.writes_each in
  let errors = ref [] in
  if full_check then check_invariants errors cl;
  check errors (ops = issued)
    (Printf.sprintf "ops: %d completed, %d issued" ops issued);
  let segs =
    Content.read
      (Cluster.stripe_contents cl file ~stripe:0)
      (Interval.v ~lo:0 ~hi:xfer)
  in
  check errors
    (List.for_all (fun (_, tag) -> Option.is_some tag) segs)
    "device contents: the rewritten range has a hole";
  {
    cl; file; host;
    sim = sim_of cl ~ops ~bytes:(Cluster.total_bytes_written cl) ~window:pio ~lat;
    attempted = issued; failed = 0; load = None; errors = !errors;
  }

type op = Write of int | Read of int

let mixed_write = 16 * Units.kib
let mixed_read = 64 * Units.kib

(* The open-loop request stream: 70% 16 KiB writes, 30% 64 KiB reads,
   half of the offsets inside the hot region.  Offsets are aligned to
   the operation size, so no operation straddles a stripe. *)
let mixed_ops ~seed (m : mixed) =
  let rng = Det_random.create ~seed:(seed lxor 0x0b5) in
  Array.init m.arrivals (fun _ ->
      let write = Det_random.float rng 1. < 0.7 in
      let len = if write then mixed_write else mixed_read in
      let limit = if Det_random.bool rng then m.hot else m.span in
      let off = Det_random.int rng (limit / len) * len in
      if write then Write off else Read off)

(* Build the open-loop cluster and install its whole arrival schedule;
   the engine has not run yet. *)
let launch_mixed ~instrument ~seed (m : mixed) =
  let cl =
    fresh_cluster ~servers:m.servers ~replication:m.replication
      ~clients:m.clients ()
  in
  instrument cl;
  let layout = Layout.v ~stripe_size:m.stripe_size ~stripe_count:m.stripes () in
  let ops = mixed_ops ~seed m in
  let file = ref None in
  let prepare c =
    let f = Client.open_file c ~create:true ~layout "/mixed" in
    if Option.is_none !file then file := Some f;
    (c, f)
  in
  let request (c, f) k =
    match ops.(k) with
    | Write off ->
        Client.write c f ~off ~len:mixed_write;
        mixed_write
    | Read off ->
        ignore (Client.read c f ~off ~len:mixed_read);
        mixed_read
  in
  let spec =
    {
      Load.Driver.process = Load.Arrivals.Poisson m.rate;
      seed;
      requests = m.arrivals;
      max_in_flight = m.cap;
      churn = [];
      start_at = 0.;
    }
  in
  let h = Load.Driver.launch cl spec ~prepare ~request in
  (cl, (fun () -> Option.get !file), h)

let run_mixed ~instrument ~full_check ~seed (m : mixed) =
  let t0 = host_now () in
  let cl, file, h = launch_mixed ~instrument ~seed m in
  let host = simulate ~t0 cl in
  let r = Load.Driver.result h in
  let errors = ref [] in
  if full_check then check_invariants errors cl;
  check errors
    (r.r_completed + r.r_shed = r.r_arrivals && r.r_arrivals = m.arrivals)
    (Printf.sprintf "open loop: completed %d + shed %d <> arrivals %d (of %d)"
       r.r_completed r.r_shed r.r_arrivals m.arrivals);
  check errors
    (Cluster.total_stale_bounces cl = 0)
    "static shard map, yet a client was bounced";
  let bytes =
    sum_clients cl (fun c -> Client.bytes_written c + Client.bytes_read c)
  in
  {
    cl; file = file (); host;
    sim =
      sim_of cl ~ops:r.r_completed ~bytes ~window:r.r_window_s
        ~lat:r.r_sojourn;
    attempted = m.arrivals; failed = r.r_shed; load = Some r;
    errors = !errors;
  }

(* [instrument] runs on the fresh cluster before any process is
   spawned: the traced repetition attaches its sink and recorders
   there. *)
let run ?(instrument = ignore) ?(full_check = true) name ~size ~seed =
  match shape name size with
  | Ior w -> run_ior ~instrument ~full_check ~seed w
  | Convoy w -> run_convoy ~instrument ~full_check ~seed w
  | Mixed m -> run_mixed ~instrument ~full_check ~seed m

(* The open-loop capacity search: [Load.Sweep] over a fixed grid plus
   bisection at the knee, each point on a fresh cluster.  The answer is
   the highest offered rate below the knee that met the SLO (sojourn
   p99 <= 1 ms and achieved >= 0.95 x offered), or 0 if none did. *)
let sweep_rates = [ 50_000.; 75_000.; 100_000.; 125_000.; 150_000. ]
let slo_p99_s = 1e-3

let max_rate_under_slo ~size ~seed =
  let m = mixed size in
  let run_rate rate =
    let cl, _, h = launch_mixed ~instrument:ignore ~seed { m with rate } in
    Cluster.run cl;
    Cluster.fsync_all cl;
    Load.Driver.result h
  in
  let points =
    Load.Sweep.run
      { Load.Sweep.rates = sweep_rates; slo_s = slo_p99_s;
        min_achieved_frac = 0.95; bisect_steps = 3 }
      ~run_rate
  in
  let below_knee (p : Load.Sweep.point) =
    match Load.Sweep.knee points with
    | Some k -> p.p_rate < k.p_rate
    | None -> true
  in
  List.fold_left
    (fun acc (p : Load.Sweep.point) ->
      if p.p_violates || not (below_knee p) then acc else Float.max acc p.p_rate)
    0. points
