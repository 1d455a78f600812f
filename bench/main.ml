(* The benchmark harness.

   Part 1 regenerates every table and figure of the paper's evaluation
   section (the same rows/series, at laptop scale — see EXPERIMENTS.md
   for the paper-vs-measured record).

   Part 2 runs Bechamel microbenchmarks of the hot paths the simulation
   rests on: extent-map updates (client cache & data-server extent
   cache), LCM checks, layout arithmetic, lock range sets, lock-server
   queue passes, engine dispatch (one sleep-chain event at a time, a
   deep queue of sleepers and RPCs among idle daemon timers among them),
   the bare RPC transport (a call round trip and a reliable
   fire-and-forget send), whole mini-cluster steps, creating a
   1,024-client cluster and a grant log's appends and reads.

     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe -- experiments  # tables/figures only
     dune exec bench/main.exe -- micro        # microbenchmarks only
     dune exec bench/main.exe -- micro extent # only the rows whose name
                                              # contains "extent"

   Only the selected rows build their fixtures, so a filtered run takes
   seconds.  BENCH_micro.json then holds just those rows. *)

open Ccpfs_util
open Bechamel
open Toolkit

(* ------------------------------------------------------------------ *)
(* Part 2: microbenchmarks                                             *)
(* ------------------------------------------------------------------ *)

let iv lo hi = Interval.v ~lo ~hi

(* A row is its name and a builder of its Bechamel test: the fixture is
   built only when the row is selected. *)
let row name fixture = (name, fun () -> Test.make ~name (fixture ()))

let bench_extent_map_set =
  row "extent_map.set (1k live extents)" (fun () ->
      Staged.stage (fun () ->
          let m =
            List.fold_left
              (fun m k ->
                Extent_map.set m (iv (k * 8192) ((k * 8192) + 4096)) k)
              Extent_map.empty
              (List.init 1000 (fun k -> k))
          in
          Sys.opaque_identity (Extent_map.cardinal m)))

let bench_extent_map_merge =
  row "extent_map.merge one 4MB range over 1k extents" (fun () ->
      let base =
        List.fold_left
          (fun m k -> Extent_map.set m (iv (k * 8192) ((k * 8192) + 4096)) k)
          Extent_map.empty
          (List.init 1000 (fun k -> k))
      in
      Staged.stage (fun () ->
          let m, won =
            Extent_map.merge base (iv 0 4_000_000) 5000 ~keep_new:(fun ~old ->
                5000 > old)
          in
          Sys.opaque_identity (Extent_map.cardinal m + List.length won)))

(* [n] one-byte extents with distinct values, built by ascending gap
   appends. *)
let ascending_extents n =
  List.fold_left
    (fun m k -> Extent_map.set m (iv k (k + 1)) k)
    Extent_map.empty (List.init n Fun.id)

(* The client's whole-stripe flush: cut every dirty extent out of the
   map (which hands the map over as it is) and total their bytes. *)
let bench_extent_map_flush n =
  row
    (Printf.sprintf "extent_map: whole-stripe flush over %dk extents"
       (n / 1024))
    (fun () ->
      let m = ascending_extents n in
      let all = Interval.to_eof ~lo:0 in
      Staged.stage (fun () ->
          let taken, left = Extent_map.cut m all in
          Sys.opaque_identity
            (Extent_map.total_length taken + Extent_map.cardinal left)))

(* What [Client_cache.flush] does to a stripe's dirty map when a lock's
   range covers 700 of its 2,100 extents, clipping one at either end:
   cut them out as the flush's map and total their bytes.  The map is
   persistent, so every run cuts the same map. *)
let bench_client_cache_flush =
  row "client cache: flush of 700 dirty extents" (fun () ->
      let block = 65536 in
      let dirty =
        List.fold_left
          (fun m k ->
            Extent_map.set m
              (iv (k * block) ((k + 1) * block))
              { Content.writer = 0; op = k; sn = 1 })
          Extent_map.empty (List.init 2100 Fun.id)
      in
      let range = iv ((700 * block) + (block / 2)) ((1400 * block) - (block / 2)) in
      Staged.stage (fun () ->
          let taken, left = Extent_map.cut dirty range in
          Sys.opaque_identity
            (Extent_map.total_length taken + Extent_map.cardinal left)))

(* A sequential writer's path through the client cache: 4,096 writes of
   64 KiB, each past the stripe's dirty data, then one whole-stripe
   flush to a data server stub that acknowledges at once.  Each run
   builds its own engine and cache; the dirty limits are high enough
   that the flush daemon never fires. *)
let bench_client_cache_appends =
  row "client cache: 4k sequential 64 KiB appends + whole-stripe flush"
    (fun () ->
      let params = Netsim.Params.default in
      let config =
        Ccpfs.Config.with_dirty_limits ~dirty_min:Units.gib
          ~dirty_max:(2 * Units.gib) Ccpfs.Config.default
      in
      let block = 65536 in
      Staged.stage (fun () ->
          let eng = Dessim.Engine.create () in
          let node = Netsim.Node.create eng params ~name:"ds" () in
          let ep =
            Netsim.Rpc.endpoint eng params ~node ~name:"ds.io"
              ~handler:(fun _ ~reply -> reply Ccpfs.Data_server.Done)
          in
          let cc =
            Ccpfs.Client_cache.create eng params config
              ~node:(Netsim.Node.create eng params ~name:"c0" ())
              ~client_id:0
              ~io_route:(fun _ -> ep)
          in
          Dessim.Engine.spawn eng ~name:"writer" (fun () ->
              for k = 0 to 4095 do
                Ccpfs.Client_cache.write cc ~rid:1
                  ~range:(iv (k * block) ((k + 1) * block))
                  ~sn:1 ~op:k
              done;
              Ccpfs.Client_cache.flush cc ~rid:1
                ~ranges:[ Interval.to_eof ~lo:0 ]);
          Dessim.Engine.run eng;
          Sys.opaque_identity (Ccpfs.Client_cache.bytes_flushed cc)))

(* The data server's cache on the N-1 segmented pattern, without the
   rest of [ingest]: one merge into the gap past the last of [n]
   extents.  The map is persistent, so every run appends to the same
   [n]-entry map. *)
let bench_extent_map_append n =
  row
    (Printf.sprintf "extent_map.merge: gap append into a %dk-entry map"
       (n / 1024))
    (fun () ->
      let m = ascending_extents n in
      let tail = iv n (n + 1) in
      Staged.stage (fun () ->
          let m, won = Extent_map.merge m tail n ~keep_new:(fun ~old -> n > old) in
          Sys.opaque_identity (Extent_map.cardinal m + List.length won)))

(* The data server's per-block routine on the N-1 segmented pattern:
   every 64 KiB block carries its own (SN, op) and lands in the gap past
   the stripe's last extent, so nothing ever coalesces.  The cache holds
   [n] entries when measuring starts and grows by one per run (some tens
   of thousands over Bechamel's samples), crossing the amortised
   coalescing threshold again and again.  The per-block cost should not
   depend on [n]. *)
let bench_data_server_ingest n =
  row
    (Printf.sprintf "data server: apply one block into a %dk-entry extent cache"
       (n / 1024))
    (fun () ->
      let block = 65536 in
      let params = Netsim.Params.default in
      let eng = Dessim.Engine.create () in
      let node = Netsim.Node.create eng params ~name:"ds" ~with_disk:true () in
      let lock_server =
        Seqdlm.Lock_server.create eng params ~node ~name:"ls"
          ~policy:Seqdlm.Policy.seqdlm
      in
      let ds =
        Ccpfs.Data_server.create eng params Ccpfs.Config.default ~node
          ~name:"ds" ~lock_server
      in
      let next = ref 0 in
      let ingest () =
        let k = !next in
        incr next;
        Ccpfs.Data_server.ingest ds ~rid:1
          {
            Ccpfs.Data_server.b_range = iv (k * block) ((k + 1) * block);
            b_tag = { Content.writer = 0; op = k; sn = 1 };
          }
      in
      for _ = 1 to n do
        ignore (ingest ())
      done;
      Staged.stage (fun () -> Sys.opaque_identity (ingest ())))

(* Table III's flush on the data server: 7,168 ascending 64 KiB blocks,
   one client's share of a voluntary flush on the N-1 segmented
   pattern, sent as one Write_flush through the IO endpoint into the gap
   past a 256k-entry extent cache.  A Truncate then cuts them off again,
   so every run starts from the same 256k entries (the cache limit is
   raised so that no cleanup runs). *)
let bench_data_server_gap_flush =
  row "data server: 7k-block gap flush into a 256k-entry cache" (fun () ->
      let block = 65536 and base = 262_144 and flushed = 7168 in
      let params = Netsim.Params.default in
      let eng = Dessim.Engine.create () in
      let node = Netsim.Node.create eng params ~name:"ds" ~with_disk:true () in
      let client = Netsim.Node.create eng params ~name:"c" () in
      let lock_server =
        Seqdlm.Lock_server.create eng params ~node ~name:"ls"
          ~policy:Seqdlm.Policy.seqdlm
      in
      let config =
        Ccpfs.Config.with_extent_cache ~limit:(4 * base) Ccpfs.Config.default
      in
      let ds =
        Ccpfs.Data_server.create eng params config ~node ~name:"ds" ~lock_server
      in
      let tag k = { Content.writer = 0; op = k; sn = 1 } in
      for k = 0 to base - 1 do
        ignore
          (Ccpfs.Data_server.ingest ds ~rid:1
             {
               Ccpfs.Data_server.b_range = iv (k * block) ((k + 1) * block);
               b_tag = tag k;
             })
      done;
      let extents =
        List.fold_left
          (fun m k -> Extent_map.set m (iv (k * block) ((k + 1) * block)) (tag k))
          Extent_map.empty
          (List.init flushed (fun k -> base + k))
      in
      let ep = Ccpfs.Data_server.endpoint ds in
      let call req =
        match Netsim.Rpc.call ep ~src:client ~req_bytes:4096 req with
        | Ccpfs.Data_server.Done -> ()
        | r -> failwith (Ccpfs.Data_server.io_resp_to_string r)
      in
      Staged.stage (fun () ->
          Dessim.Engine.spawn eng ~name:"flush" (fun () ->
              call (Ccpfs.Data_server.Write_flush { rid = 1; extents; ctl = [] });
              call (Ccpfs.Data_server.Truncate { rid = 1; keep_below = base * block }));
          Dessim.Engine.run eng;
          Sys.opaque_identity (Ccpfs.Data_server.extent_cache_entries ds)))

(* One amortised coalescing pass over a cache where no neighbours share
   a value: a scan that should allocate nothing and return the map. *)
let bench_extent_map_coalesce n =
  row
    (Printf.sprintf "extent_map.coalesce over %dk entries, nothing merges"
       (n / 1024))
    (fun () ->
      let m = ascending_extents n in
      Staged.stage (fun () ->
          Sys.opaque_identity
            (Extent_map.cardinal (Extent_map.coalesce ~eq:Int.equal m))))

let bench_lcm =
  let modes = Seqdlm.Mode.[| PR; NBW; BW; PW |] in
  let states = Seqdlm.Lcm.[| Granted; Canceling |] in
  row "lcm.compatible (full Table II sweep)"
    (fun () -> Staged.stage (fun () ->
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
  row "layout.chunks (16MiB over 8 stripes)"
    (fun () -> Staged.stage (fun () ->
         Sys.opaque_identity
           (List.length
              (Ccpfs.Layout.chunks l [ iv 12345 (12345 + (16 * Units.mib)) ]))))

(* A DLM-datatype Tile-IO request at fig23's default grid (scale 0.03):
   one range per tile row, 614 per rank.  Ranks 0 and 2 sit in the same
   tile row without sharing a column, so their ranges interleave and
   never meet: the overlap scan walks both lists to the end.  Rank 1
   shares the overlap columns with both, so the union merges across all
   three. *)
let tile_requests () =
  let grid =
    Workloads.Tile_io.scaled_grid Workloads.Tile_io.paper_grid ~scale:0.03
  in
  Array.init 3 (fun rank ->
      Ranges.of_list (Workloads.Tile_io.ranges grid ~rank))

let bench_ranges_overlaps =
  row "ranges: overlaps, two disjoint 614-range Tile-IO requests" (fun () ->
      let r = tile_requests () in
      Staged.stage (fun () ->
          Sys.opaque_identity (Ranges.overlaps r.(0) r.(2))))

let bench_ranges_union =
  row "ranges: union fold of three 614-range Tile-IO requests" (fun () ->
      let r = tile_requests () in
      Staged.stage (fun () ->
          Sys.opaque_identity
            (List.fold_left Ranges.union r.(0) [ r.(1); r.(2) ])))

let bench_engine_events =
  row "engine: 1k processes x sleep"
    (fun () -> Staged.stage (fun () ->
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
  row "engine: dispatch with 40k pending arrivals" (fun () ->
      let arrivals =
        Load.Arrivals.times ~seed:1 (Load.Arrivals.Poisson 70_000.) ~n:40_000
      in
      let horizon = arrivals.(Array.length arrivals - 1) in
      let workers = 64 in
      Staged.stage (fun () ->
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

(* A deep queue of suspended continuations and nothing else: 4,096
   daemon processes sleep forever, process [i] with a period of
   ((i mod 97) + 1) us, so exactly 4,096 wake events are pending at
   every dispatch and each one sifts through ~12 heap levels.  The
   processes are spawned once, outside the measured function; a run
   advances the clock by 1 us, about 218 wake-ups.  Isolates the sift
   and dispatch cost from process creation. *)
let bench_engine_deep_sleepers =
  row "engine: 4k sleepers churning (deep queue)" (fun () ->
      let eng = Dessim.Engine.create () in
      for i = 1 to 4096 do
        let d = float_of_int ((i mod 97) + 1) *. 1e-6 in
        Dessim.Engine.spawn eng ~daemon:true ~name:(string_of_int i) (fun () ->
            while true do
              Dessim.Engine.sleep eng d
            done)
      done;
      Staged.stage (fun () ->
          Dessim.Engine.run ~until:(Dessim.Engine.now eng +. 1e-6) eng;
          Sys.opaque_identity (Dessim.Engine.events_dispatched eng)))

(* Dispatch alone, one event per run: [pending] regular step processes
   sleep [pending] ticks each, at staggered phases, so each tick of
   simulated time wakes exactly one of them and exactly [pending] wake
   events are queued at every dispatch.  A run advances the clock by one
   tick, so its time is the cost of one dispatched event: the root's
   thunk and the one push of its next sleep.  A tick is a power of two,
   so the wake times are exact and never tie. *)
let bench_engine_sleep_chain pending =
  row
    (Printf.sprintf "engine: sleep-chain dispatch, %d pending (ns/event)"
       pending)
    (fun () ->
      let eng = Dessim.Engine.create () in
      let tick = Float.ldexp 1. (-20) in
      let period = float_of_int pending *. tick in
      for i = 1 to pending do
        let rec chain () = Dessim.Engine.Sleep (period, chain) in
        Dessim.Engine.spawn_steps eng
          ~name:(Dessim.Engine.proc_name (string_of_int i))
          (fun () -> Dessim.Engine.Sleep (float_of_int i *. tick, chain))
      done;
      Dessim.Engine.run ~until:0. eng;
      let step () =
        Dessim.Engine.run ~until:(Dessim.Engine.now eng +. tick) eng
      in
      (* every process round its chain twice: one event per tick *)
      let before = Dessim.Engine.events_dispatched eng in
      for _ = 1 to 2 * pending do step () done;
      assert (Dessim.Engine.events_dispatched eng - before = 2 * pending);
      Staged.stage (fun () ->
          step ();
          Sys.opaque_identity (Dessim.Engine.events_dispatched eng)))

(* The shape of a many-client run between its bursts: 1,024 daemons
   (the client caches' flush daemons) sleep 50 ms at staggered phases
   while one caller makes 16 control RPC round trips, each a chain of
   step-process couriers.  The daemons are spawned once, outside the
   measured function; a run covers about 0.3 ms of simulated time, so
   a few daemons wake in it, and every RPC event is scheduled and
   dispatched beside the 1,024 pending daemon wakes. *)
let bench_engine_idle_daemons =
  row "engine: RPC round trips among 1k idle daemon timers" (fun () ->
      let params = Netsim.Params.default in
      let eng = Dessim.Engine.create () in
      let server = Netsim.Node.create eng params ~name:"s" () in
      let client = Netsim.Node.create eng params ~name:"c" () in
      let ep =
        Netsim.Rpc.endpoint eng params ~node:server ~name:"s.echo"
          ~handler:(fun k ~reply -> reply (k + 1))
      in
      let period = 0.05 and daemons = 1024 in
      for i = 1 to daemons do
        let rec idle () = Dessim.Engine.Sleep (period, idle) in
        let phase = period *. float_of_int i /. float_of_int daemons in
        Dessim.Engine.spawn_steps eng ~daemon:true
          ~name:(Dessim.Engine.proc_name (Printf.sprintf "c%d.flushd" i))
          (fun () -> Dessim.Engine.Sleep (phase, idle))
      done;
      let sum = ref 0 in
      Staged.stage (fun () ->
          Dessim.Engine.spawn eng ~name:"caller" (fun () ->
              for i = 1 to 16 do
                sum := !sum + Netsim.Rpc.call ep ~src:client i
              done);
          Dessim.Engine.run eng;
          Sys.opaque_identity !sum))

(* One control RPC per caller with a handler that replies at once: the
   transport alone (request courier, server NIC and ops queue, reply
   courier, the caller's suspension) with nothing of the DLM above it. *)
let bench_rpc_round_trip =
  let callers = 1024 in
  row "rpc: bare call round trip, 1k callers"
    (fun () -> Staged.stage (fun () ->
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

(* One reliable fire-and-forget send per sender, the shape of a
   replication ship: a send courier per message running the fenced retry
   loop (request courier, reply courier, the attempt's timeout timer)
   against a handler that acknowledges at once.  A primary sends at half
   the server's operation rate: all at once, most sends would time out
   in its queue and retry. *)
let bench_rpc_reliable_send =
  let senders = 1024 in
  row "rpc: reliable fire-and-forget send, 1k senders"
    (fun () -> Staged.stage (fun () ->
         let params = Netsim.Params.default in
         let eng = Dessim.Engine.create () in
         let server = Netsim.Node.create eng params ~name:"s" () in
         let client = Netsim.Node.create eng params ~name:"c" () in
         let acked = ref 0 in
         let ep =
           Netsim.Rpc.endpoint eng params ~node:server ~name:"s.repl"
             ~handler:(fun k ~reply ->
               acked := !acked + k;
               reply ())
         in
         let reliability = Netsim.Rpc.reliability_for params in
         let view = Netsim.Rpc.View.create () in
         let gap = 2. /. params.Netsim.Params.server_ops in
         Dessim.Engine.spawn eng ~name:"primary" (fun () ->
             for i = 1 to senders do
               Netsim.Rpc.send_reliable ep ~src:client ~reliability ~view i;
               Dessim.Engine.sleep eng gap
             done);
         Dessim.Engine.run eng;
         Sys.opaque_identity !acked))

let bench_lock_handoff =
  row "full lock handoff chain (2 clients, 32 transfers)"
    (fun () -> Staged.stage (fun () ->
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
                   ~ranges:(Ranges.single (Interval.to_eof ~lo:0))
                   (fun _ -> ())
               done)
         done;
         Dessim.Engine.run eng;
         Sys.opaque_identity (Seqdlm.Lock_server.stats server).grants))

let bench_mini_cluster =
  row "mini ccPFS cluster (4 clients x 32 strided writes)"
    (fun () -> Staged.stage (fun () ->
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

(* Set-up cost at the paper's client counts: every per-client table,
   endpoint and instrument a cluster builds before its first event. *)
let bench_cluster_create =
  row "cluster: create 1,024 clients" (fun () ->
      Staged.stage (fun () ->
          Sys.opaque_identity
            (Ccpfs.Cluster.n_clients
               (Ccpfs.Cluster.create ~n_servers:1 ~n_clients:1024 ()))))

(* A replicated run's grant log over its whole life: appends past many
   doublings, then a long suffix read (what a shipped batch reads) and
   the whole-log size a failover's fetch is charged. *)
let bench_grant_log =
  row "grant log: 100k appends, then events_from and bytes" (fun () ->
      let evs =
        Array.init 64 (fun i ->
            if i land 1 = 0 then
              Seqdlm.Lock_server.R_sn { e_rid = i; e_next_sn = i + 1 }
            else
              Seqdlm.Lock_server.R_lock
                {
                  rid = i; lock_id = i; client = i; mode = Seqdlm.Mode.PW;
                  ranges = Ranges.single (iv (i * 4096) ((i + 1) * 4096));
                  sn = i;
                  state = Seqdlm.Lcm.Granted;
                })
      in
      Staged.stage (fun () ->
          let log = Repl.Grant_log.create () in
          for k = 0 to 99_999 do
            ignore (Repl.Grant_log.append log evs.(k land 63))
          done;
          let tail = Repl.Grant_log.events_from log ~lsn:50_001 in
          Sys.opaque_identity (Array.length tail + Repl.Grant_log.bytes log)))

(* A replicated primary's shipping path on its own: 10k grant-log
   appends in bursts of 3 per event (a lock-server step logs a grant, a
   sequencer advance and a drop together), at three quarters of the
   backup's operation rate, shipped to one backup until it has
   committed them all. *)
let bench_repl_ship =
  let entries = 10_000 in
  row "repl: ship 10k grant-log entries to one backup, bursts of 3 per event"
    (fun () ->
      let evs =
        Array.init 3 (fun i ->
            Seqdlm.Lock_server.R_sn { e_rid = i; e_next_sn = i + 1 })
      in
      Staged.stage (fun () ->
          let params = Netsim.Params.default in
          let eng = Dessim.Engine.create () in
          let src = Netsim.Node.create eng params ~name:"ls0" () in
          let bnode = Netsim.Node.create eng params ~name:"ls0.b0" () in
          let backup =
            Repl.Replica.create eng params ~node:bnode ~name:"ls0.b0" ~id:0
          in
          let g =
            Repl.Group.create eng ~name:"ls0" ~src ~backups:[| backup |]
              ~reliability:(Netsim.Rpc.reliability_for params) ~salt:1 ()
          in
          let gap = 4. /. params.Netsim.Params.server_ops in
          Dessim.Engine.spawn eng ~name:"primary" (fun () ->
              for k = 0 to entries - 1 do
                Repl.Group.append g evs.(k mod 3);
                if k mod 3 = 2 then Dessim.Engine.sleep eng gap
              done);
          Dessim.Engine.run eng;
          Sys.opaque_identity (Repl.Replica.committed backup)))

let bench_dllist_churn =
  row "dllist: 1k push_back + removal from the middle"
    (fun () -> Staged.stage (fun () ->
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
  let m = Interval_index.create () in
  for k = 0 to 999 do
    Interval_index.add m (iv (k * 8192) ((k * 8192) + 4096)) ~id:k k
  done;
  row "interval_index: 1k stabbing queries over 1k extents"
    (fun () -> Staged.stage (fun () ->
         let acc = ref 0 in
         for k = 0 to 999 do
           Interval_index.iter_overlapping m
             (iv (k * 8192) ((k * 8192) + 16384))
             (fun _ _ _ -> incr acc)
         done;
         Sys.opaque_identity !acc))

(* The grant-index churn of a strided run: 16k live grants with
   ascending hull starts, every other one reaching EOF as expanded
   grants do, and each step adds the next grant and drops the oldest,
   so the index stays at 16k entries.  One run is 1k such steps. *)
let bench_interval_index_churn =
  row "interval_index: 1k add/remove churn at 16k grants" (fun () ->
      let n = 16384 and stride = 65536 in
      let hull k =
        if k mod 2 = 0 then Interval.to_eof ~lo:(k * stride)
        else iv (k * stride) ((k + 1) * stride)
      in
      let m = Interval_index.create () in
      for k = 0 to n - 1 do
        Interval_index.add m (hull k) ~id:k k
      done;
      let next = ref n in
      Staged.stage (fun () ->
          for _ = 1 to 1000 do
            let k = !next in
            Interval_index.add m (hull k) ~id:k k;
            Interval_index.remove m (hull (k - n)) ~id:(k - n);
            next := k + 1
          done;
          Sys.opaque_identity (Interval_index.cardinal m)))

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
      row (Printf.sprintf "arrivals/arrivals.next_gap x1k (%s)" tag)
        (fun () -> Staged.stage (fun () ->
             let a = Load.Arrivals.create ~seed:42 proc in
             let acc = ref 0. in
             for _ = 1 to 1000 do
               acc := !acc +. Load.Arrivals.next_gap a
             done;
             Sys.opaque_identity !acc)))
    procs

(* The tentpole hot path, without the simulated network: every client
   PW-locks the whole file, so each grant goes through one full queue
   pass with the rest of the fleet blocked behind a saturating waiter.
   Each head lock is then handed on as [handoff] says: acked and
   released, or downgraded PW -> NBW and released as a SeqDLM holder's
   flush does, where the downgrade meets queued PW waiters that find
   NBW as incompatible as PW and so needs no pass. *)
let bench_lock_server_contended_pass ~handoff =
  let n = 256 in
  let suffix, before =
    match handoff with
    | `Ack ->
        ("", fun rid lock_id -> Seqdlm.Types.Revoke_ack { rid; lock_id })
    | `Downgrade ->
        ( ", downgrade + release",
          fun rid lock_id ->
            Seqdlm.Types.Downgrade { rid; lock_id; mode = Seqdlm.Mode.NBW } )
  in
  row
    (Printf.sprintf "lock_server: %d contended whole-file PW handoffs%s" n
       suffix)
    (fun () -> Staged.stage (fun () ->
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
               ranges = Ranges.single (Interval.to_eof ~lo:0);
             }
             ~on_grant:(fun g ->
               Queue.push (g.Seqdlm.Types.rid, g.Seqdlm.Types.lock_id) to_release)
         done;
         (* Ping-pong: handing the head grant on lets the next waiter
            through, queueing its own (rid, lock_id) in turn. *)
         while not (Queue.is_empty to_release) do
           let rid, lock_id = Queue.pop to_release in
           Seqdlm.Lock_server.control server (before rid lock_id);
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
   at the block above it.

   With [~canceling:c], the fixture then reinstalls [c] CANCELING NBW
   locks of other clients, the i-th over [lo_i, EOF) with the [lo_i]
   spread evenly across the blocks: the revoked-lock backlog an
   early-grant run leaves behind the flush queue.  Every grant is then
   an early grant over the backlog locks below its block, and none of
   them conflicts with it. *)
let bench_lock_server_grant_over ?(canceling = 0) n =
  row
    (Printf.sprintf "lock_server: grant over %dk cached grants%s" (n / 1000)
       (if canceling = 0 then ""
        else Printf.sprintf " + %d canceling" canceling))
    (fun () ->
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
            ranges = Ranges.single (iv (k * block) ((k + 1) * block));
          }
          ~on_grant:(fun g -> ids.(k) <- g.Seqdlm.Types.lock_id)
      in
      for k = n - 1 downto 0 do
        grant k
      done;
      for i = 1 to canceling do
        Seqdlm.Lock_server.reinstall server
          [
            {
              Seqdlm.Types.rid = 1;
              lock_id = n + i;
              client = i;
              mode = Seqdlm.Mode.NBW;
              ranges =
                Ranges.single
                  (Interval.to_eof ~lo:((i - 1) * (n / canceling) * block));
              sn = n + i;
              state = Seqdlm.Lcm.Canceling;
            };
          ]
      done;
      let next = ref 0 in
      Staged.stage (fun () ->
          let k = !next mod n in
          incr next;
          Seqdlm.Lock_server.control server
            (Seqdlm.Types.Release { rid = 1; lock_id = ids.(k) });
          grant k;
          Sys.opaque_identity ids.(k)))

(* Every row, in table order; a row's fixture is built only when the row
   is selected. *)
let micro_rows =
  [
    bench_extent_map_set;
    bench_extent_map_merge;
    bench_extent_map_append 262144;
    bench_extent_map_flush 16384;
    bench_extent_map_coalesce 16384;
    bench_extent_map_coalesce 262144;
    bench_data_server_ingest 16384;
    bench_data_server_ingest 262144;
    bench_data_server_gap_flush;
    bench_client_cache_flush;
    bench_client_cache_appends;
    bench_lcm;
    bench_layout_chunks;
    bench_ranges_overlaps;
    bench_ranges_union;
    bench_dllist_churn;
    bench_interval_index_query;
    bench_interval_index_churn;
  ]
  @ bench_arrival_gaps
  @ [
      bench_lock_server_contended_pass ~handoff:`Ack;
      bench_lock_server_contended_pass ~handoff:`Downgrade;
      bench_lock_server_grant_over 1024;
      bench_lock_server_grant_over 16384;
      bench_lock_server_grant_over ~canceling:64 16384;
      bench_engine_events;
      bench_engine_pending_arrivals;
      bench_engine_deep_sleepers;
      bench_engine_sleep_chain 10;
      bench_engine_sleep_chain 100;
      bench_engine_idle_daemons;
      bench_rpc_round_trip;
      bench_rpc_reliable_send;
      bench_lock_handoff;
      bench_mini_cluster;
      bench_cluster_create;
      bench_grant_log;
      bench_repl_ship;
    ]

let contains ~sub s =
  let n = String.length sub in
  let rec from i =
    i + n <= String.length s && (String.sub s i n = sub || from (i + 1))
  in
  from 0

let micro_tests filter =
  match List.filter (fun (name, _) -> contains ~sub:filter name) micro_rows with
  | [] ->
      prerr_endline ("bench: no micro-benchmark row contains " ^ filter);
      exit 2
  | rows ->
      Test.make_grouped ~name:"seqdlm-micro"
        (List.map (fun (_, build) -> build ()) rows)

let micro_schema = "ccpfs.micro/1"

let run_micro filter =
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
  let raw =
    Benchmark.all cfg Instance.[ monotonic_clock ] (micro_tests filter)
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
  let filter = if Array.length Sys.argv > 2 then Sys.argv.(2) else "" in
  if what = "all" || what = "experiments" then begin
    Experiments.Registry.run_all ();
    let n =
      Experiments.Registry.write_results ~path:"BENCH_experiments.json"
    in
    Printf.printf "\nwrote BENCH_experiments.json (%d rows)\n" n
  end;
  if what = "all" || what = "micro" then run_micro filter
