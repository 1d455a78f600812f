open Ccpfs_util
open Ccpfs

(* Replicated lock-server recovery (DESIGN.md §16) vs the §IV-C2 client
   gather, measured under a live crash: N clients rewrite a shared file
   under PW contention, the lock server is killed a quarter of the way
   through, and the recovery coordinator rebuilds the lock table — once
   by gathering every client's cached grants (replication off), once by
   electing and replaying a backup's grant log (replication on).  The
   replay path removes the per-client round-trips from the
   unavailability window, so its recovery half must come out measurably
   smaller on the same history.  Closed-loop rows also carry a
   virtual-time throughput series whose dip makes the outage visible.

   Both fault paths also run through the open-loop harness (lib/load):
   Poisson arrivals keep landing at their scheduled times straight
   through the outage, so the sojourn tail and the shed count price the
   window in a way closed-loop clients cannot (ROADMAP: "failover under
   open-loop load").

   Every run writes its rows to BENCH_repl.json (schema ccpfs.repl/1) with
   a lost-grant / divergence audit that must report zero: after the run
   quiesces, every lock a client still caches must sit in the recovered
   server's table with the same mode and SN. *)

(* CI's repl-smoke job pins the client count:
   CCPFS_REPL_CLIENTS=8 ccpfs_run run repl *)
let client_count () = Knob.int "CCPFS_REPL_CLIENTS" ~default:8 ~min:2

(* Replication factor under test: CCPFS_REPL when set, else f=1. *)
let repl_factor () = Stdlib.max 1 Config.default.Config.replication

let xfer = 64 * Units.kib
let seed_base = 0x5ed1
let bucket_count = 24

type measurement = {
  m_mode : string; (* "gather" | "replay" *)
  m_loop : string; (* "closed" | "open" *)
  m_replication : int;
  m_clients : int;
  m_requests : int;
  m_ops : int;
  m_retries : int;
  m_failover : Ha.Failover.record;
  m_sim_total_s : float;
  m_lost_grants : int;
  m_divergent_locks : int;
  m_open : Load.Driver.result option;
  m_throughput : (float * int array) option;
      (* closed loop: bucket width and write completions per bucket *)
}

(* Zero-loss audit: every lock a client still caches after the run must
   exist in the recovered server's table under the same id, mode and SN.
   A missing entry is a lost grant (the recovery dropped state a client
   relies on); a mismatched one is divergence. *)
let audit cl =
  let srv = Cluster.lock_server cl 0 in
  let lost = ref 0 and divergent = ref 0 in
  for i = 0 to Cluster.n_clients cl - 1 do
    let lc = Client.lock_client (Cluster.client cl i) in
    List.iter
      (fun (r : Seqdlm.Types.lock) ->
        match
          List.find_opt
            (fun (v : Seqdlm.Types.lock) ->
              v.lock_id = r.lock_id && v.client = r.client)
            (Seqdlm.Lock_server.granted_locks srv r.rid)
        with
        | None -> incr lost
        | Some v ->
            if v.sn <> r.sn || not (Seqdlm.Mode.equal v.mode r.mode) then
              incr divergent)
      (Seqdlm.Lock_client.locks_for_recovery lc ~owned:(fun _ -> true))
  done;
  (!lost, !divergent)

let fresh_cluster ~clients ~replication () =
  let params = Netsim.Params.default in
  Cluster.create ~params
    ~config:(Config.with_extent_log true Config.default)
    ~reliability:(Netsim.Rpc.reliability_for params)
    ~policy:Seqdlm.Policy.seqdlm ~replication ~n_servers:1 ~n_clients:clients
    ()

let single_record ha =
  match Ha.Failover.records ha with
  | [ r ] -> r
  | rs ->
      invalid_arg
        (Printf.sprintf "exp_repl: expected exactly 1 failover, got %d"
           (List.length rs))

(* Bucket the write completions into [bucket_count] equal slices of
   [0, horizon]; the empty buckets between crash and recover are the
   outage. *)
let throughput_series ~horizon completions =
  let width = Float.max horizon 1e-9 /. float_of_int bucket_count in
  let counts = Array.make bucket_count 0 in
  List.iter
    (fun t ->
      let b = Stdlib.min (bucket_count - 1) (int_of_float (t /. width)) in
      counts.(b) <- counts.(b) + 1)
    completions;
  (width, counts)

(* ---------------------------------------------------------------- *)
(* Closed loop: a contended shared file with a live crash            *)
(* ---------------------------------------------------------------- *)

(* Each client alternates between the shared hot range (real PW
   contention: queueing, revocations, retries across the outage) and a
   private segment whose cached PW lock is still held when the server
   dies — those grants are what the recovery reinstalls.  The crash
   trigger is an op count, so it scales with the workload. *)
let run_closed ~clients ~writes_each ~replication =
  let _, cl, (ha, ops, completions) =
    Harness.run ~name:"exp_repl.closed" (fresh_cluster ~clients ~replication)
      (fun cl ->
        let eng = Cluster.engine cl in
        let ha = Ha.Failover.install cl in
        let total = clients * writes_each in
        let crash_after = Stdlib.max 1 (total / 4) in
        let done_ops = ref 0 in
        let completions = ref [] in
        for i = 0 to clients - 1 do
          Cluster.spawn_client cl i ~name:(Printf.sprintf "w%d" i) (fun c ->
              let f = Client.open_file c ~create:true "/repl" in
              let private_off = (i + 1) * xfer in
              for k = 1 to writes_each do
                let off = if k land 1 = 0 then 0 else private_off in
                Client.write ~mode:Seqdlm.Mode.PW c f ~off ~len:xfer;
                incr done_ops;
                completions := Cluster.now cl :: !completions
              done)
        done;
        let tick = Ha.Detector.period (Ha.Failover.detector ha) in
        Dessim.Engine.spawn eng ~name:"crash-injector" (fun () ->
            while !done_ops < crash_after do
              Dessim.Engine.sleep eng tick
            done;
            ignore (Ha.Failover.crash ha 0);
            while List.is_empty (Ha.Failover.records ha) do
              Dessim.Engine.sleep eng tick
            done);
        fun () -> (ha, !done_ops, !completions))
  in
  let lost, divergent = audit cl in
  {
    m_mode = (if replication > 0 then "replay" else "gather");
    m_loop = "closed";
    m_replication = replication;
    m_clients = clients;
    m_requests = clients * writes_each;
    m_ops = ops;
    m_retries = Cluster.total_retries cl;
    m_failover = single_record ha;
    m_sim_total_s = Cluster.now cl;
    m_lost_grants = lost;
    m_divergent_locks = divergent;
    m_open = None;
    m_throughput =
      Some (throughput_series ~horizon:(Cluster.now cl) completions);
  }

(* ---------------------------------------------------------------- *)
(* Open loop: same fault point under scheduled Poisson arrivals      *)
(* ---------------------------------------------------------------- *)

(* The crash fires at a quarter of the scheduled injection span —
   a time trigger, matching the open loop's time-scheduled arrivals. *)
let run_open ~clients ~requests ~rate ~replication =
  let _, cl, (ha, r) =
    Harness.run ~name:"exp_repl.open" (fresh_cluster ~clients ~replication)
      (fun cl ->
        let eng = Cluster.engine cl in
        let ha = Ha.Failover.install cl in
        let span = float_of_int requests /. rate in
        let spec =
          Load.Driver.
            {
              process = Load.Arrivals.Poisson rate;
              seed = seed_base;
              requests;
              max_in_flight = 8 * clients;
              churn = [];
              start_at = 0.;
            }
        in
        let prepare c = (c, Client.open_file c ~create:true "/repl-open") in
        let request (c, f) k =
          let off =
            if k land 1 = 0 then 0 else (1 + (k mod (4 * clients))) * xfer
          in
          Client.write ~mode:Seqdlm.Mode.PW c f ~off ~len:xfer;
          xfer
        in
        let h = Load.Driver.launch cl spec ~prepare ~request in
        let tick = Ha.Detector.period (Ha.Failover.detector ha) in
        Dessim.Engine.spawn eng ~name:"crash-injector" (fun () ->
            Dessim.Engine.sleep eng (span /. 4.);
            ignore (Ha.Failover.crash ha 0);
            while List.is_empty (Ha.Failover.records ha) do
              Dessim.Engine.sleep eng tick
            done);
        fun () -> (ha, Load.Driver.result h))
  in
  let lost, divergent = audit cl in
  {
    m_mode = (if replication > 0 then "replay" else "gather");
    m_loop = "open";
    m_replication = replication;
    m_clients = clients;
    m_requests = requests;
    m_ops = r.Load.Driver.r_completed;
    m_retries = Cluster.total_retries cl;
    m_failover = single_record ha;
    m_sim_total_s = Cluster.now cl;
    m_lost_grants = lost;
    m_divergent_locks = divergent;
    m_open = Some r;
    m_throughput = None;
  }

(* ---------------------------------------------------------------- *)
(* Rows (schema ccpfs.repl/1)                                        *)
(* ---------------------------------------------------------------- *)

let row_of (m : measurement) =
  let r = m.m_failover in
  let open Obs.Json in
  let mode_fields =
    match r.f_mode with
    | Ha.Failover.Gather ->
        [
          ("log_entries", Int 0); ("log_bytes", Int 0);
          ("election_rounds", Int 0); ("elected_backup", Int (-1));
        ]
    | Ha.Failover.Replay { r_backup; r_entries; r_rounds; r_log_bytes } ->
        [
          ("log_entries", Int r_entries); ("log_bytes", Int r_log_bytes);
          ("election_rounds", Int r_rounds); ("elected_backup", Int r_backup);
        ]
  in
  let throughput_fields =
    match m.m_throughput with
    | None -> []
    | Some (width, counts) ->
        [
          ("throughput_bucket_s", Float width);
          ( "throughput_ops",
            List (Array.to_list (Array.map (fun n -> Int n) counts)) );
        ]
  in
  let open_fields =
    match m.m_open with
    | None -> []
    | Some r ->
        [
          ("offered_rate_rps", Float r.Load.Driver.r_offered_rate);
          ("achieved_rate_rps", Float r.r_achieved_rate);
          ("goodput_Bps", Float r.r_goodput_Bps);
          ("arrivals", Int r.r_arrivals);
          ("completed", Int r.r_completed);
          ("shed", Int r.r_shed);
          ("window_s", Float r.r_window_s);
          ("sojourn_p50_s", Float (Stats.percentile r.r_sojourn 50.));
          ("sojourn_p99_s", Float (Stats.percentile r.r_sojourn 99.));
          ("sojourn_max_s", Float (Stats.max r.r_sojourn));
        ]
  in
  Obj
    ([
       ("experiment", Str "repl");
       ("scale", Float (Obs.Hub.scale ()));
       ("mode", Str m.m_mode);
       ("loop", Str m.m_loop);
       ("replication", Int m.m_replication);
       ("clients", Int m.m_clients);
       ("requests", Int m.m_requests);
       ("xfer_bytes", Int xfer);
       ("ops", Int m.m_ops);
       ("sim_total_s", Float m.m_sim_total_s);
       ("crash_s", Float r.f_crash);
       ("detect_s", Float r.f_detect);
       ("recover_s", Float r.f_recover);
       ("detect_latency_s", Float (r.f_detect -. r.f_crash));
       ("recovery_s", Float (r.f_recover -. r.f_detect));
       ("unavailability_s", Float (r.f_recover -. r.f_crash));
       ("epoch", Int r.f_epoch);
       ("retries", Int m.m_retries);
       ("reinstalled_locks", Int r.f_reinstalled);
       ("dropped_waiters", Int r.f_dropped_waiters);
       ("replayed_bytes", Int r.f_replayed_bytes);
       ("lost_grants", Int m.m_lost_grants);
       ("divergent_locks", Int m.m_divergent_locks);
     ]
    @ mode_fields @ throughput_fields @ open_fields)

let results_schema = "ccpfs.repl/1"
let results_path = "BENCH_repl.json"

let run ~scale =
  let clients = client_count () in
  let writes_each = Stdlib.max 4 (Harness.scaled ~scale 32) in
  let f = repl_factor () in
  let tbl =
    Table.create
      ~title:
        (Printf.sprintf
           "Replicated recovery: gather vs replay on one fault point (%d \
            clients x %d writes x %s, f=%d)"
           clients writes_each
           (Units.bytes_to_string xfer)
           f)
      ~columns:
        [ "mode"; "loop"; "detect"; "recover"; "unavailable"; "locks back";
          "lost"; "ops" ]
  in
  let add_row (m : measurement) =
    let r = m.m_failover in
    Table.add_row tbl
      [
        m.m_mode; m.m_loop;
        Units.seconds_to_string (r.f_detect -. r.f_crash);
        Units.seconds_to_string (r.f_recover -. r.f_detect);
        Units.seconds_to_string (r.f_recover -. r.f_crash);
        string_of_int r.f_reinstalled;
        string_of_int (m.m_lost_grants + m.m_divergent_locks);
        string_of_int m.m_ops;
      ]
  in
  let gather = run_closed ~clients ~writes_each ~replication:0 in
  let replay = run_closed ~clients ~writes_each ~replication:f in
  (* The open-loop pair offers ~60% of the closed loop's achieved rate:
     below the knee in steady state, so the sojourn tail isolates the
     outage rather than saturation. *)
  let rate =
    0.6 *. float_of_int gather.m_ops /. Float.max 1e-9 gather.m_sim_total_s
  in
  let requests = clients * writes_each in
  let gather_o = run_open ~clients ~requests ~rate ~replication:0 in
  let replay_o = run_open ~clients ~requests ~rate ~replication:f in
  List.iter add_row [ gather; replay; gather_o; replay_o ];
  let n =
    Harness.write_rows ~schema:results_schema ~path:results_path
      (List.map row_of [ gather; replay; gather_o; replay_o ])
  in
  let win (m : measurement) = m.m_failover.f_recover -. m.m_failover.f_crash in
  Table.add_note tbl
    (Printf.sprintf
       "replay shrinks the closed-loop unavailability window %s -> %s \
        (%.1f%%); lost grants %d/%d/%d/%d; %d row(s) in %s"
       (Units.seconds_to_string (win gather))
       (Units.seconds_to_string (win replay))
       (100. *. (win gather -. win replay) /. Float.max 1e-12 (win gather))
       (gather.m_lost_grants + gather.m_divergent_locks)
       (replay.m_lost_grants + replay.m_divergent_locks)
       (gather_o.m_lost_grants + gather_o.m_divergent_locks)
       (replay_o.m_lost_grants + replay_o.m_divergent_locks)
       n results_path);
  Table.print tbl
