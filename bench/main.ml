(* The benchmark harness.

   Part 1 regenerates every table and figure of the paper's evaluation
   section (the same rows/series, at laptop scale — see EXPERIMENTS.md
   for the paper-vs-measured record).

   Part 2 runs Bechamel microbenchmarks of the hot paths the simulation
   rests on: extent-map updates (client cache & data-server extent
   cache), LCM checks, layout arithmetic, lock-server queue passes,
   engine dispatch, the bare RPC transport and whole mini-cluster
   steps.

     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe -- experiments  # tables/figures only
     dune exec bench/main.exe -- micro        # microbenchmarks only *)

open Ccpfs_util
open Bechamel
open Toolkit

(* ------------------------------------------------------------------ *)
(* Part 2: microbenchmarks                                             *)
(* ------------------------------------------------------------------ *)

let iv lo hi = Interval.v ~lo ~hi

let bench_extent_map_set =
  Test.make ~name:"extent_map.set (1k live extents)"
    (Staged.stage (fun () ->
         let m =
           List.fold_left
             (fun m k -> Extent_map.set m (iv (k * 8192) ((k * 8192) + 4096)) k)
             Extent_map.empty
             (List.init 1000 (fun k -> k))
         in
         Sys.opaque_identity (Extent_map.cardinal m)))

let bench_extent_map_merge =
  let base =
    List.fold_left
      (fun m k -> Extent_map.set m (iv (k * 8192) ((k * 8192) + 4096)) k)
      Extent_map.empty
      (List.init 1000 (fun k -> k))
  in
  Test.make ~name:"extent_map.merge one 4MB range over 1k extents"
    (Staged.stage (fun () ->
         let m, won =
           Extent_map.merge base (iv 0 4_000_000) 5000 ~keep_new:(fun ~old ->
               5000 > old)
         in
         Sys.opaque_identity (Extent_map.cardinal m + List.length won)))

(* The data server's per-block routine on the N-1 segmented pattern:
   every 64 KiB block carries its own (SN, op) and lands in the gap past
   the stripe's last extent, so nothing ever coalesces.  The cache holds
   [n] entries when measuring starts and grows by one per run (some tens
   of thousands over Bechamel's samples), crossing the amortised
   coalescing threshold again and again.  The per-block cost should not
   depend on [n]. *)
let bench_data_server_ingest n =
  let block = 65536 in
  let params = Netsim.Params.default in
  let eng = Dessim.Engine.create () in
  let node = Netsim.Node.create eng params ~name:"ds" ~with_disk:true () in
  let lock_server =
    Seqdlm.Lock_server.create eng params ~node ~name:"ls"
      ~policy:Seqdlm.Policy.seqdlm
  in
  let ds =
    Ccpfs.Data_server.create eng params Ccpfs.Config.default ~node ~name:"ds"
      ~lock_server
  in
  let next = ref 0 in
  let ingest () =
    let k = !next in
    incr next;
    Ccpfs.Data_server.ingest ds ~rid:1
      {
        Ccpfs.Data_server.b_range = iv (k * block) ((k + 1) * block);
        b_sn = 1;
        b_tag = { Content.writer = 0; op = k; sn = 1 };
      }
  in
  for _ = 1 to n do
    ignore (ingest ())
  done;
  Test.make
    ~name:
      (Printf.sprintf "data server: apply one block into a %dk-entry extent cache"
         (n / 1024))
    (Staged.stage (fun () -> Sys.opaque_identity (ingest ())))

(* One amortised coalescing pass over a cache where no neighbours share
   a value: a scan that should allocate nothing and return the map. *)
let bench_extent_map_coalesce n =
  let m =
    List.fold_left
      (fun m k -> Extent_map.set m (iv k (k + 1)) k)
      Extent_map.empty (List.init n Fun.id)
  in
  Test.make
    ~name:
      (Printf.sprintf "extent_map.coalesce over %dk entries, nothing merges"
         (n / 1024))
    (Staged.stage (fun () ->
         Sys.opaque_identity
           (Extent_map.cardinal (Extent_map.coalesce ~eq:Int.equal m))))

let bench_lcm =
  let modes = Seqdlm.Mode.[| PR; NBW; BW; PW |] in
  let states = Seqdlm.Lcm.[| Granted; Canceling |] in
  Test.make ~name:"lcm.compatible (full Table II sweep)"
    (Staged.stage (fun () ->
         let acc = ref 0 in
         Array.iter
           (fun req ->
             Array.iter
               (fun granted ->
                 Array.iter
                   (fun state ->
                     if Seqdlm.Lcm.compatible ~req ~granted ~state then incr acc)
                   states)
               modes)
           modes;
         Sys.opaque_identity !acc))

let bench_layout_chunks =
  let l = Ccpfs.Layout.v ~stripe_count:8 () in
  Test.make ~name:"layout.chunks (16MiB over 8 stripes)"
    (Staged.stage (fun () ->
         Sys.opaque_identity
           (List.length (Ccpfs.Layout.chunks l (iv 12345 (12345 + (16 * Units.mib)))))))

let bench_engine_events =
  Test.make ~name:"engine: 1k processes x sleep"
    (Staged.stage (fun () ->
         let eng = Dessim.Engine.create () in
         for i = 1 to 1000 do
           Dessim.Engine.spawn eng ~name:(string_of_int i) (fun () ->
               Dessim.Engine.sleep eng (float_of_int (i mod 13) *. 1e-5))
         done;
         Dessim.Engine.run eng;
         Sys.opaque_identity (Dessim.Engine.events_dispatched eng)))

(* The open-loop driver's shape: a whole Poisson arrival schedule goes
   into the queue up front through [Engine.at] (so every dispatch sifts
   through tens of thousands of pending events), while worker processes
   sleep through service times among them. *)
let bench_engine_pending_arrivals =
  let arrivals =
    Load.Arrivals.times ~seed:1 (Load.Arrivals.Poisson 70_000.) ~n:40_000
  in
  let horizon = arrivals.(Array.length arrivals - 1) in
  let workers = 64 in
  Test.make ~name:"engine: dispatch with 40k pending arrivals"
    (Staged.stage (fun () ->
         let eng = Dessim.Engine.create () in
         let served = ref 0 in
         Array.iter
           (fun time -> Dessim.Engine.at eng ~time (fun () -> incr served))
           arrivals;
         for i = 1 to workers do
           let service = float_of_int (workers + i) /. 70_000. in
           Dessim.Engine.spawn eng ~name:(string_of_int i) (fun () ->
               while Dessim.Engine.now eng < horizon do
                 Dessim.Engine.sleep eng service
               done)
         done;
         Dessim.Engine.run eng;
         Sys.opaque_identity (Dessim.Engine.events_dispatched eng + !served)))

(* One control RPC per caller with a handler that replies at once: the
   transport alone (request courier, server NIC and ops queue, reply
   courier, the caller's suspension) with nothing of the DLM above it. *)
let bench_rpc_round_trip =
  let callers = 1024 in
  Test.make ~name:"rpc: bare call round trip, 1k callers"
    (Staged.stage (fun () ->
         let params = Netsim.Params.default in
         let eng = Dessim.Engine.create () in
         let server = Netsim.Node.create eng params ~name:"s" () in
         let client = Netsim.Node.create eng params ~name:"c" () in
         let ep =
           Netsim.Rpc.endpoint eng params ~node:server ~name:"s.echo"
             ~handler:(fun k ~reply -> reply (k + 1))
         in
         let sum = ref 0 in
         for i = 1 to callers do
           Dessim.Engine.spawn eng ~name:(string_of_int i) (fun () ->
               sum := !sum + Netsim.Rpc.call ep ~src:client i)
         done;
         Dessim.Engine.run eng;
         Sys.opaque_identity !sum))

let bench_lock_handoff =
  Test.make ~name:"full lock handoff chain (2 clients, 32 transfers)"
    (Staged.stage (fun () ->
         let params = Netsim.Params.default in
         let eng = Dessim.Engine.create () in
         let node = Netsim.Node.create eng params ~name:"s" () in
         let server =
           Seqdlm.Lock_server.create eng params ~node ~name:"ls"
             ~policy:Seqdlm.Policy.seqdlm
         in
         let clients =
           Array.init 2 (fun i ->
               let cn =
                 Netsim.Node.create eng params ~name:(Printf.sprintf "c%d" i) ()
               in
               let hooks =
                 {
                   Seqdlm.Lock_client.flush = (fun ~rid:_ ~ranges:_ -> ());
                   has_dirty = (fun ~rid:_ ~ranges:_ -> false);
                   invalidate = (fun ~rid:_ ~ranges:_ -> ());
                 }
               in
               Seqdlm.Lock_client.create eng params ~node:cn ~client_id:i
                 ~route:(fun _ -> server)
                 ~hooks)
         in
         for i = 0 to 1 do
           Dessim.Engine.spawn eng ~name:(Printf.sprintf "w%d" i) (fun () ->
               for _ = 1 to 16 do
                 Seqdlm.Lock_client.with_lock clients.(i) ~rid:1
                   ~mode:Seqdlm.Mode.NBW
                   ~ranges:[ Interval.to_eof ~lo:0 ]
                   (fun _ -> ())
               done)
         done;
         Dessim.Engine.run eng;
         Sys.opaque_identity (Seqdlm.Lock_server.stats server).grants))

let bench_mini_cluster =
  Test.make ~name:"mini ccPFS cluster (4 clients x 32 strided writes)"
    (Staged.stage (fun () ->
         let cl = Ccpfs.Cluster.create ~n_servers:1 ~n_clients:4 () in
         for i = 0 to 3 do
           Ccpfs.Cluster.spawn_client cl i ~name:(Printf.sprintf "w%d" i)
             (fun c ->
               let f = Ccpfs.Client.open_file c ~create:true "/bench" in
               for k = 0 to 31 do
                 Ccpfs.Client.write c f
                   ~off:(((k * 4) + i) * 65536)
                   ~len:65536
               done)
         done;
         Ccpfs.Cluster.run cl;
         Sys.opaque_identity (Ccpfs.Cluster.total_bytes_written cl)))

let bench_dllist_churn =
  Test.make ~name:"dllist: 1k push_back + removal from the middle"
    (Staged.stage (fun () ->
         let l = Dllist.create () in
         let nodes = Array.init 1000 (fun k -> Dllist.push_back l k) in
         (* evens first, then odds — every removal is from the middle *)
         for k = 0 to 499 do
           Dllist.remove l nodes.(2 * k)
         done;
         for k = 0 to 499 do
           Dllist.remove l nodes.((2 * k) + 1)
         done;
         Sys.opaque_identity (Dllist.length l)))

let bench_interval_index_query =
  let m =
    List.fold_left
      (fun m k -> Interval_index.add m (iv (k * 8192) ((k * 8192) + 4096)) ~id:k k)
      Interval_index.empty
      (List.init 1000 (fun k -> k))
  in
  Test.make ~name:"interval_index: 1k stabbing queries over 1k extents"
    (Staged.stage (fun () ->
         let acc = ref 0 in
         for k = 0 to 999 do
           Interval_index.iter_overlapping m
             (iv (k * 8192) ((k * 8192) + 16384))
             (fun _ _ _ -> incr acc)
         done;
         Sys.opaque_identity !acc))

(* The open-loop schedule generator: drawing arrival gaps is on the
   load driver's setup path (one draw per injected request, the whole
   schedule materialized before the sweep point starts), so a slow MMPP
   hunt loop would tax every rate point.  Constant is the floor (pure
   arithmetic), Poisson adds one log per gap, MMPP adds the modulated
   dwell walk. *)
let bench_arrival_gaps =
  let procs =
    [
      ("constant", Load.Arrivals.Constant 1000.);
      ("poisson", Load.Arrivals.Poisson 1000.);
      ("mmpp", Load.Arrivals.bursty ~rate:1000.);
    ]
  in
  List.map
    (fun (tag, proc) ->
      Test.make ~name:(Printf.sprintf "arrivals.next_gap x1k (%s)" tag)
        (Staged.stage (fun () ->
             let a = Load.Arrivals.create ~seed:42 proc in
             let acc = ref 0. in
             for _ = 1 to 1000 do
               acc := !acc +. Load.Arrivals.next_gap a
             done;
             Sys.opaque_identity !acc)))
    procs

(* The tentpole hot path, without the simulated network: every client
   PW-locks the whole file, so each grant goes through one full queue
   pass with the rest of the fleet blocked behind a saturating waiter. *)
let bench_lock_server_contended_pass =
  let n = 256 in
  Test.make
    ~name:(Printf.sprintf "lock_server: %d contended whole-file PW handoffs" n)
    (Staged.stage (fun () ->
         let params = Netsim.Params.default in
         let eng = Dessim.Engine.create () in
         let node = Netsim.Node.create eng params ~name:"s" () in
         let server =
           Seqdlm.Lock_server.create eng params ~node ~name:"ls"
             ~policy:Seqdlm.Policy.seqdlm
         in
         for cid = 0 to n - 1 do
           let cn =
             Netsim.Node.create eng params ~name:(Printf.sprintf "c%d" cid) ()
           in
           Seqdlm.Lock_server.register_client server cid
             (Netsim.Rpc.endpoint eng params ~node:cn
                ~name:(Printf.sprintf "c%d.cb" cid)
                ~handler:(fun _ ~reply -> reply ()))
         done;
         let to_release = Queue.create () in
         for cid = 0 to n - 1 do
           Seqdlm.Lock_server.submit server
             {
               Seqdlm.Types.client = cid;
               rid = 1;
               mode = Seqdlm.Mode.PW;
               ranges = [ Interval.to_eof ~lo:0 ];
             }
             ~on_grant:(fun g ->
               Queue.push (g.Seqdlm.Types.rid, g.Seqdlm.Types.lock_id) to_release)
         done;
         (* Ping-pong: acking + releasing the head grant lets the next
            waiter through, queueing its own (rid, lock_id) in turn. *)
         while not (Queue.is_empty to_release) do
           let rid, lock_id = Queue.pop to_release in
           Seqdlm.Lock_server.control server
             (Seqdlm.Types.Revoke_ack { rid; lock_id });
           Seqdlm.Lock_server.control server
             (Seqdlm.Types.Release { rid; lock_id })
         done;
         Sys.opaque_identity (Seqdlm.Lock_server.stats server).grants))

(* The early-grant steady state of Fig. 20's strided pattern: the table
   holds N cached grants, and each run releases one of them and grants
   its block again.  The table stays at N, so the per-grant cost should
   not depend on N: the expansion bound, the conflict scan and the
   early-grant probe all go through the interval index.  The fixture is
   built up front, in descending block order so each greedy grant stops
   at the block above it. *)
let bench_lock_server_grant_over n =
  let block = 65536 in
  let params = Netsim.Params.default in
  let eng = Dessim.Engine.create () in
  let node = Netsim.Node.create eng params ~name:"s" () in
  let server =
    Seqdlm.Lock_server.create eng params ~node ~name:"ls"
      ~policy:Seqdlm.Policy.seqdlm
  in
  let cn = Netsim.Node.create eng params ~name:"c0" () in
  Seqdlm.Lock_server.register_client server 0
    (Netsim.Rpc.endpoint eng params ~node:cn ~name:"c0.cb"
       ~handler:(fun _ ~reply -> reply ()));
  let ids = Array.make n 0 in
  let grant k =
    Seqdlm.Lock_server.submit server
      {
        Seqdlm.Types.client = 0;
        rid = 1;
        mode = Seqdlm.Mode.NBW;
        ranges = [ iv (k * block) ((k + 1) * block) ];
      }
      ~on_grant:(fun g -> ids.(k) <- g.Seqdlm.Types.lock_id)
  in
  for k = n - 1 downto 0 do
    grant k
  done;
  let next = ref 0 in
  Test.make
    ~name:(Printf.sprintf "lock_server: grant over %dk cached grants" (n / 1000))
    (Staged.stage (fun () ->
         let k = !next mod n in
         incr next;
         Seqdlm.Lock_server.control server
           (Seqdlm.Types.Release { rid = 1; lock_id = ids.(k) });
         grant k;
         Sys.opaque_identity ids.(k)))

(* Built when the microbenchmarks run: some fixtures take a while. *)
let micro_tests () =
  Test.make_grouped ~name:"seqdlm-micro"
    [
      bench_extent_map_set;
      bench_extent_map_merge;
      bench_extent_map_coalesce 16384;
      bench_extent_map_coalesce 262144;
      bench_data_server_ingest 16384;
      bench_data_server_ingest 262144;
      bench_lcm;
      bench_layout_chunks;
      bench_dllist_churn;
      bench_interval_index_query;
      Test.make_grouped ~name:"arrivals" bench_arrival_gaps;
      bench_lock_server_contended_pass;
      bench_lock_server_grant_over 1024;
      bench_lock_server_grant_over 16384;
      bench_engine_events;
      bench_engine_pending_arrivals;
      bench_rpc_round_trip;
      bench_lock_handoff;
      bench_mini_cluster;
    ]

let micro_schema = "ccpfs.micro/1"

let run_micro () =
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
  let raw =
    Benchmark.all cfg Instance.[ monotonic_clock ] (micro_tests ())
  in
  let results =
    Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false
                   ~predictors:[| Measure.run |])
      Instance.monotonic_clock raw
  in
  (* Hashtbl.iter order varies run to run; sort by test name so the
     table (and the JSON rows) are stable and diffable. *)
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let est =
          match Analyze.OLS.estimates ols with
          | Some [ est ] -> Some est
          | _ -> None
        in
        (name, est) :: acc)
      results []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  print_endline "\n== microbenchmarks (ns/run) ==";
  List.iter
    (fun (name, est) ->
      match est with
      | Some est -> Printf.printf "%-55s %12.0f ns\n" name est
      | None -> Printf.printf "%-55s (no estimate)\n" name)
    rows;
  Obs.Results.clear ();
  List.iter
    (fun (name, est) ->
      Obs.Results.add
        (Obs.Json.Obj
           [
             ("name", Obs.Json.Str name);
             ( "ns_per_run",
               match est with
               | Some e -> Obs.Json.Float e
               | None -> Obs.Json.Null );
           ]))
    rows;
  let n = Obs.Results.write ~schema:micro_schema ~path:"BENCH_micro.json" () in
  Printf.printf "\nwrote BENCH_micro.json (%d rows)\n" n

let () =
  let what = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  if what = "all" || what = "experiments" then begin
    Experiments.Registry.run_all ();
    let n =
      Experiments.Registry.write_results ~path:"BENCH_experiments.json"
    in
    Printf.printf "\nwrote BENCH_experiments.json (%d rows)\n" n
  end;
  if what = "all" || what = "micro" then run_micro ()
