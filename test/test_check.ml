(* Tests for the protocol sanitizer (lib/check): the invariant layer
   catching deliberately injected protocol bugs, the wait-for-graph
   deadlock analyzer, the determinism checker, and the schedule
   explorer. *)

open Ccpfs_util
open Dessim
open Seqdlm

let iv lo hi = Interval.v ~lo ~hi
let params = Netsim.Params.default

let make_server () =
  let eng = Engine.create () in
  let snode = Netsim.Node.create eng params ~name:"server" () in
  let server =
    Lock_server.create eng params ~node:snode ~name:"ls"
      ~policy:Policy.seqdlm
  in
  (eng, server)

(* A GRANTED lock on resource 1 over one range. *)
let lock ~client ~id ~mode ~range ~sn : Types.lock =
  { rid = 1; lock_id = id; client; mode; ranges = Ranges.single range; sn;
    state = Lcm.Granted }

let expect_violation inv f =
  match f () with
  | () -> Alcotest.failf "expected a %s violation" inv
  | exception Check.Violation.Violation v ->
      Alcotest.(check string) "violated invariant" inv v.Check.Violation.inv

(* ------------------------------------------------------------------ *)
(* Invariant layer vs injected bugs                                    *)
(* ------------------------------------------------------------------ *)

let test_catches_pw_beside_pr () =
  (* The acceptance scenario: corrupt the lock table as a compatibility
     bug would (a PW granted alongside an overlapping PR) and the
     invariant layer must call it out. *)
  let _, server = make_server () in
  Lock_server.reinstall server
    [
      lock ~client:0 ~id:1 ~mode:Mode.PW ~range:(iv 0 4096) ~sn:1;
      lock ~client:1 ~id:2 ~mode:Mode.PR ~range:(iv 0 4096) ~sn:1;
    ];
  expect_violation "lcm-compat" (fun () -> Check.Invariant.check_server server)

let test_catches_duplicate_sn () =
  let _, server = make_server () in
  Lock_server.reinstall server
    [
      lock ~client:0 ~id:1 ~mode:Mode.NBW ~range:(iv 0 4096) ~sn:5;
      lock ~client:1 ~id:2 ~mode:Mode.NBW ~range:(iv 8192 12288) ~sn:5;
    ];
  expect_violation "sn-rules" (fun () -> Check.Invariant.check_server server)

let test_clean_state_passes () =
  let _, server = make_server () in
  Lock_server.reinstall server
    [
      lock ~client:0 ~id:1 ~mode:Mode.NBW ~range:(iv 0 4096) ~sn:1;
      lock ~client:1 ~id:2 ~mode:Mode.NBW ~range:(iv 8192 12288) ~sn:2;
    ];
  Check.Invariant.check_server server

(* ------------------------------------------------------------------ *)
(* Cache-under-lock                                                    *)
(* ------------------------------------------------------------------ *)

let make_cache_world () =
  let eng, server = make_server () in
  let node = Netsim.Node.create eng params ~name:"c0" () in
  let hooks =
    {
      Lock_client.flush = (fun ~rid:_ ~ranges:_ -> ());
      has_dirty = (fun ~rid:_ ~ranges:_ -> false);
      invalidate = (fun ~rid:_ ~ranges:_ -> ());
    }
  in
  let lc =
    Lock_client.create eng params ~node ~client_id:0
      ~route:(fun _ -> server)
      ~hooks
  in
  let io_ep =
    Netsim.Rpc.endpoint eng params ~node ~name:"io" ~handler:(fun _ ~reply:_ ->
        assert false)
  in
  let cache =
    Ccpfs.Client_cache.create eng params Ccpfs.Config.default ~node
      ~client_id:0
      ~io_route:(fun _ -> io_ep)
  in
  (eng, lc, cache)

let test_dirty_without_lock_flagged () =
  let eng, lc, cache = make_cache_world () in
  Engine.spawn eng ~name:"w" (fun () ->
      Ccpfs.Client_cache.write cache ~rid:1 ~range:(iv 0 4096) ~sn:1 ~op:1);
  Engine.run eng;
  expect_violation "cache-under-lock" (fun () ->
      Check.Invariant.check_client ~lock_client:lc ~cache)

let test_dirty_under_lock_passes () =
  let eng, lc, cache = make_cache_world () in
  Engine.spawn eng ~name:"w" (fun () ->
      let _h =
        Lock_client.acquire lc ~rid:1 ~mode:Mode.NBW
          ~ranges:(Ranges.single (iv 0 4096))
      in
      Ccpfs.Client_cache.write cache ~rid:1 ~range:(iv 0 4096) ~sn:1 ~op:1);
  Engine.run eng;
  Check.Invariant.check_client ~lock_client:lc ~cache

(* ------------------------------------------------------------------ *)
(* Wait-for-graph deadlock analysis                                    *)
(* ------------------------------------------------------------------ *)

let test_wait_for_graph_cycle () =
  (* Classic lock-order inversion with BW (which never early-grants):
     c0 holds r1 and wants r2, c1 holds r2 and wants r1.  The engine
     must stall, and the analyzer must name the cycle with modes and
     ranges. *)
  let eng, server = make_server () in
  let clients =
    Array.init 2 (fun i ->
        let node =
          Netsim.Node.create eng params ~name:(Printf.sprintf "c%d" i) ()
        in
        let hooks =
          {
            Lock_client.flush = (fun ~rid:_ ~ranges:_ -> ());
            has_dirty = (fun ~rid:_ ~ranges:_ -> false);
            invalidate = (fun ~rid:_ ~ranges:_ -> ());
          }
        in
        Lock_client.create eng params ~node ~client_id:i
          ~route:(fun _ -> server)
          ~hooks)
  in
  let order = [| (1, 2); (2, 1) |] in
  Array.iteri
    (fun i (first, second) ->
      Engine.spawn eng ~name:(Printf.sprintf "w%d" i) (fun () ->
          let _h1 =
            Lock_client.acquire clients.(i) ~rid:first ~mode:Mode.BW
              ~ranges:(Ranges.single (iv 0 4096))
          in
          let _h2 =
            Lock_client.acquire clients.(i) ~rid:second ~mode:Mode.BW
              ~ranges:(Ranges.single (iv 0 4096))
          in
          ()))
    order;
  match Engine.run eng with
  | () -> Alcotest.fail "expected a deadlock"
  | exception Engine.Deadlock blocked ->
      let report = Check.Deadlock.analyze ~servers:[ server ] ~blocked in
      Alcotest.(check (list (list int)))
        "one 2-cycle" [ [ 0; 1 ] ] report.Check.Deadlock.cycles;
      Alcotest.(check int) "two wait edges" 2
        (List.length report.Check.Deadlock.edges);
      List.iter
        (fun (e : Check.Deadlock.edge) ->
          Alcotest.(check bool) "BW on both sides" true
            (Mode.equal e.waiter.q_eff_mode Mode.BW
            && Mode.equal e.held.mode Mode.BW))
        report.Check.Deadlock.edges;
      (* The engine-level report names the stuck application processes
         (waiting on the lock RPC) and the cancel processes that cannot
         drain because each client still holds its first lock. *)
      let names = Engine.blocked_names blocked in
      Alcotest.(check bool) "both writers reported" true
        (List.mem "w0" names && List.mem "w1" names);
      let ctx_of name =
        match List.find_opt (fun b -> b.Engine.b_name = name) blocked with
        | Some { Engine.b_context = Some ctx; _ } -> ctx
        | _ -> ""
      in
      List.iter
        (fun w ->
          Alcotest.(check bool)
            (w ^ " blocked on the lock RPC")
            true
            (String.starts_with ~prefix:"rpc:" (ctx_of w)))
        [ "w0"; "w1" ];
      Alcotest.(check bool) "cancel wait context reported" true
        (List.exists
           (fun b ->
             match b.Engine.b_context with
             | Some ctx -> String.starts_with ~prefix:"lock-idle:" ctx
             | None -> false)
           blocked);
      Alcotest.(check string) "printed report"
        (String.concat "\n"
           [
             "deadlock: 4 blocked process(es)";
             "  w0 blocked on rpc:ls.lock";
             "  w1 blocked on rpc:ls.lock";
             "  c1.cancel.r2#2 blocked on lock-idle:r2#2";
             "  c0.cancel.r1#1 blocked on lock-idle:r1#1";
             "wait-for graph:";
             "  c1 (BW [[0, 4096)]) waits on c0 holding BW/CANCELING \
              [[0, EOF)] of r1";
             "  c0 (BW [[0, 4096)]) waits on c1 holding BW/CANCELING \
              [[0, EOF)] of r2";
             "cycle: c0 -> c1 -> c0";
           ])
        (Check.Deadlock.to_string report)

(* ------------------------------------------------------------------ *)
(* Determinism checker                                                 *)
(* ------------------------------------------------------------------ *)

let test_determinism_accepts_pure_scenario () =
  let fp =
    Check.Determinism.check ~name:"pure" (fun () ->
        let eng, server = make_server () in
        ignore server;
        Engine.spawn eng ~name:"p" (fun () -> Engine.sleep eng 1.0);
        Engine.run eng;
        eng)
  in
  Alcotest.(check bool) "nonzero fingerprint" true (not (Int64.equal fp 0L))

let test_determinism_catches_hidden_state () =
  (* A scenario leaking state across runs (here: a counter that changes
     an event's timing) must be caught by the double-run. *)
  let counter = ref 0 in
  expect_violation "determinism" (fun () ->
      ignore
        (Check.Determinism.check ~name:"leaky" (fun () ->
             incr counter;
             let eng = Engine.create () in
             Engine.spawn eng ~name:"p" (fun () ->
                 Engine.sleep eng (float_of_int !counter));
             Engine.run eng;
             eng)))

let test_determinism_under_randomized_hashing () =
  (* Regression for a family of latent ordering bugs: sweeps that leaked
     raw [Hashtbl] iteration order into protocol events — the flush
     daemon's equal-size tie order, the data server's budget-limited
     cleanup sweep and force-sync issue order, the client's per-stripe
     write grouping.  [Hashtbl.randomize] gives every subsequently
     created table a fresh random seed, so the two runs of the
     determinism check iterate their tables in genuinely different
     orders; if any of those sweeps still depended on it, the
     event-stream fingerprints would diverge. *)
  Hashtbl.randomize ();
  let open Ccpfs in
  ignore
    (Check.Determinism.check ~name:"randomized-hashing" (fun () ->
         let config =
           Config.with_extent_cache ~limit:48
             (Config.with_dirty_limits ~dirty_min:(32 * 1024)
                ~dirty_max:(256 * 1024) Config.default)
         in
         (* the voluntary flush daemon must get a chance to run between
            writes — its largest-first drain order is one of the sweeps
            under test *)
         let config = { config with Config.flush_period = 2e-4 } in
         let cl =
           Cluster.create ~config ~policy:Policy.seqdlm ~n_servers:2
             ~n_clients:4 ()
         in
         let layout = Layout.v ~stripe_size:(16 * 1024) ~stripe_count:8 () in
         for i = 0 to 3 do
           Cluster.spawn_client cl i ~name:(Printf.sprintf "w%d" i) (fun c ->
               let f = Client.open_file c ~create:true ~layout "/rand" in
               (* Stripe-crossing strided writes over an 8-stripe layout:
                  every write spans stripes (the per-stripe grouping
                  table), the equal-size dirty stripes exercise the flush
                  daemon's tie order, and the extent-cache pressure on
                  both servers drives the cleanup sweep and force-sync. *)
               for k = 0 to 11 do
                 let slot = (k * 4) + i in
                 Client.write c f ~off:(slot * 20_000) ~len:20_000
               done;
               Client.write c f ~off:(i * 160 * 1024) ~len:(128 * 1024);
               Client.fsync c)
         done;
         Cluster.run cl;
         Cluster.fsync_all cl;
         Cluster.check_invariants cl;
         Cluster.engine cl))

let test_find_cycles_stable_under_randomized_hashing () =
  (* Regression for the lint rule D001 finding in [Deadlock.find_cycles]:
     the DFS shares its [visited] table across roots, so the order the
     roots are taken in decides which traversal discovers each cycle —
     and with roots supplied by raw [Hashtbl.iter], two analyses of the
     same stall could report the same cycles in different orders.  Roots
     now come from sorted-key iteration; under [Hashtbl.randomize] every
     call builds its adjacency table with a fresh random seed, so any
     remaining dependence on bucket order would show up as run-to-run
     disagreement below. *)
  Hashtbl.randomize ();
  let mk_edge w h =
    {
      Check.Deadlock.waiter =
        {
          Lock_server.q_client = w;
          q_mode = Mode.PW;
          q_eff_mode = Mode.PW;
          q_ranges = Ranges.single (iv 0 8);
          q_enq_time = 0.;
        };
      held = lock ~client:h ~id:h ~mode:Mode.PW ~range:(iv 0 8) ~sn:h;
    }
  in
  (* Three disjoint 2-cycles: with unsorted roots, whichever component's
     root the table yields first gets its cycle listed first. *)
  let edges =
    List.concat_map
      (fun (a, b) -> [ mk_edge a b; mk_edge b a ])
      [ (1, 2); (3, 4); (5, 6) ]
  in
  let expect = [ [ 1; 2 ]; [ 3; 4 ]; [ 5; 6 ] ] in
  for _ = 1 to 60 do
    Alcotest.(check (list (list int)))
      "cycle list independent of table seed" expect
      (Check.Deadlock.find_cycles edges)
  done

(* ------------------------------------------------------------------ *)
(* Schedule explorer                                                   *)
(* ------------------------------------------------------------------ *)

let test_explore_enumerates_tie_orders () =
  (* Two processes tied at spawn and again at t=1.0: two binary choices,
     so exactly four schedules, both wake orders observed. *)
  let seen = ref [] in
  let r =
    Check.Explore.run (fun choose ->
        let eng = Engine.create () in
        Engine.set_tie_chooser eng choose;
        let log = ref [] in
        List.iter
          (fun name ->
            Engine.spawn eng ~name (fun () ->
                Engine.sleep eng 1.0;
                log := name :: !log))
          [ "a"; "b" ];
        Engine.run eng;
        seen := List.rev !log :: !seen)
  in
  Alcotest.(check int) "schedules" 4 r.Check.Explore.schedules;
  Alcotest.(check bool) "exhaustive" true r.Check.Explore.complete;
  Alcotest.(check bool) "both orders seen" true
    (List.mem [ "a"; "b" ] !seen && List.mem [ "b"; "a" ] !seen)

let test_explore_pinpoints_failing_schedule () =
  (* A bug that only fires under one interleaving must be found and
     reported with the decision path that reproduces it. *)
  match
    Check.Explore.run (fun choose ->
        let eng = Engine.create () in
        Engine.set_tie_chooser eng choose;
        let log = ref [] in
        List.iter
          (fun name ->
            Engine.spawn eng ~name (fun () ->
                Engine.sleep eng 1.0;
                log := name :: !log))
          [ "a"; "b" ];
        Engine.run eng;
        if List.rev !log = [ "b"; "a" ] then failwith "order-sensitive bug")
  with
  | _ -> Alcotest.fail "expected Schedule_failed"
  | exception Check.Explore.Schedule_failed { index; choices; exn; _ } ->
      Alcotest.(check int) "found on second schedule" 1 index;
      Alcotest.(check bool) "decision path recorded" true
        (List.exists (fun (c, n) -> c = 1 && n = 2) choices);
      Alcotest.(check bool) "original exception kept" true
        (match exn with Failure _ -> true | _ -> false)

let test_explore_three_client_contention () =
  (* The acceptance scenario: three contending writers, all arrival
     orders, every same-timestamp interleaving, invariants after each
     schedule. *)
  let r = Check.Scenarios.explore_contention () in
  Alcotest.(check bool) "exhaustive" true r.Check.Explore.complete;
  Alcotest.(check int) "schedules" 1152 r.Check.Explore.schedules

let suite =
  [
    ( "check.invariant",
      [
        Alcotest.test_case "injected PW beside PR caught" `Quick
          test_catches_pw_beside_pr;
        Alcotest.test_case "injected duplicate SN caught" `Quick
          test_catches_duplicate_sn;
        Alcotest.test_case "clean state passes" `Quick test_clean_state_passes;
        Alcotest.test_case "dirty data without lock flagged" `Quick
          test_dirty_without_lock_flagged;
        Alcotest.test_case "dirty data under lock passes" `Quick
          test_dirty_under_lock_passes;
      ] );
    ( "check.deadlock",
      [
        Alcotest.test_case "wait-for graph names the cycle" `Quick
          test_wait_for_graph_cycle;
        Alcotest.test_case "cycle list stable under randomized hashing" `Quick
          test_find_cycles_stable_under_randomized_hashing;
      ] );
    ( "check.determinism",
      [
        Alcotest.test_case "pure scenario accepted" `Quick
          test_determinism_accepts_pure_scenario;
        Alcotest.test_case "hidden state caught" `Quick
          test_determinism_catches_hidden_state;
        Alcotest.test_case "stable under randomized hashing" `Quick
          test_determinism_under_randomized_hashing;
      ] );
    ( "check.explore",
      [
        Alcotest.test_case "enumerates tie orders" `Quick
          test_explore_enumerates_tie_orders;
        Alcotest.test_case "pinpoints failing schedule" `Quick
          test_explore_pinpoints_failing_schedule;
        Alcotest.test_case "three-client contention exhaustive" `Quick
          test_explore_three_client_contention;
      ] );
  ]
