(* Tests for the simulated RPC transport (lib/net). *)

open Dessim
open Netsim

let feq msg = Alcotest.(check (float 1e-9)) msg

let params =
  (* Round numbers make latencies easy to assert: RTT 1 ms, 1 MB/s NIC,
     100 ops/s service, 1 MB/s disk. *)
  {
    Params.rtt = 1e-3;
    b_net = 1e6;
    server_ops = 100.;
    b_disk = 1e6;
    b_mem = 1e6;
    ctl_msg_bytes = 0;
    bulk_threshold = 16 * 1024;
    client_io_overhead = 0.;
  }

let test_call_latency () =
  let eng = Engine.create () in
  let server = Node.create eng params ~name:"s" () in
  let client = Node.create eng params ~name:"c" () in
  let ep =
    Rpc.endpoint eng params ~node:server ~name:"echo"
      ~handler:(fun x ~reply -> reply (x + 1))
  in
  let got = ref 0 and at = ref 0. in
  Engine.spawn eng ~name:"caller" (fun () ->
      got := Rpc.call ep ~src:client 41;
      at := Engine.now eng);
  Engine.run eng;
  Alcotest.(check int) "reply value" 42 !got;
  (* rtt/2 + 1/ops + rtt/2 = 0.5ms + 10ms + 0.5ms *)
  feq "latency = rtt + service" 0.011 !at;
  Alcotest.(check int) "one call" 1 (Rpc.calls ep)

let test_call_payload_bandwidth () =
  let eng = Engine.create () in
  let server = Node.create eng params ~name:"s" () in
  let client = Node.create eng params ~name:"c" () in
  let ep =
    Rpc.endpoint eng params ~node:server ~name:"put"
      ~handler:(fun () ~reply -> reply ())
  in
  Engine.spawn eng ~name:"caller" (fun () ->
      Rpc.call ep ~src:client ~req_bytes:1_000_000 ();
      (* 0.5ms + 1s pipe + 10ms service + 0.5ms *)
      feq "payload occupies pipe" 1.011 (Engine.now eng));
  Engine.run eng;
  Alcotest.(check int) "bytes accounted" 1_000_000 (Node.net_bytes_in server)

let test_server_ops_serialise () =
  (* Term ① of Eq. 1: N concurrent small calls take ~N/OPS at the
     server. *)
  let eng = Engine.create () in
  let server = Node.create eng params ~name:"s" () in
  let ep =
    Rpc.endpoint eng params ~node:server ~name:"noop"
      ~handler:(fun () ~reply -> reply ())
  in
  let n = 10 in
  let last = ref 0. in
  for i = 1 to n do
    let client = Node.create eng params ~name:(Printf.sprintf "c%d" i) () in
    Engine.spawn eng ~name:(Printf.sprintf "caller%d" i) (fun () ->
        Rpc.call ep ~src:client ();
        if Engine.now eng > !last then last := Engine.now eng)
  done;
  Engine.run eng;
  feq "N/OPS + rtt" (float_of_int n /. params.Params.server_ops +. params.Params.rtt)
    !last

let test_deferred_reply () =
  let eng = Engine.create () in
  let server = Node.create eng params ~name:"s" () in
  let client = Node.create eng params ~name:"c" () in
  let pending = ref None in
  let ep =
    Rpc.endpoint eng params ~node:server ~name:"defer"
      ~handler:(fun () ~reply -> pending := Some reply)
  in
  Engine.spawn eng ~name:"releaser" (fun () ->
      Engine.sleep eng 5.;
      match !pending with Some r -> r 7 | None -> Alcotest.fail "no pending");
  let got = ref 0 and at = ref 0. in
  Engine.spawn eng ~name:"caller" (fun () ->
      got := Rpc.call ep ~src:client ();
      at := Engine.now eng);
  Engine.run eng;
  Alcotest.(check int) "deferred value" 7 !got;
  feq "released at 5s + rtt/2" 5.0005 !at

let test_notify_does_not_block () =
  let eng = Engine.create () in
  let server = Node.create eng params ~name:"s" () in
  let client = Node.create eng params ~name:"c" () in
  let received = ref (-1.) in
  let ep =
    Rpc.endpoint eng params ~node:server ~name:"cb"
      ~handler:(fun () ~reply ->
        received := Engine.now eng;
        reply ())
  in
  Engine.spawn eng ~name:"sender" (fun () ->
      Rpc.notify ep ~src:client ();
      feq "sender not blocked" 0. (Engine.now eng));
  Engine.run eng;
  feq "delivered after rtt/2 + service" 0.0105 !received

let test_blocking_handler_uses_disk () =
  (* A step handler waits on the disk by returning the wait as a step:
     the request courier sleeps it out, then runs the reply. *)
  let eng = Engine.create () in
  let server = Node.create eng params ~name:"s" ~with_disk:true () in
  let client = Node.create eng params ~name:"c" () in
  let ep =
    Rpc.step_endpoint eng params ~node:server ~name:"write"
      ~handler:(fun bytes ~reply ->
        Engine.Sleep
          ( Node.disk_write server bytes,
            fun () ->
              reply ();
              Engine.Done ))
  in
  Engine.spawn eng ~name:"caller" (fun () ->
      Rpc.call ep ~src:client ~req_bytes:500_000 500_000;
      (* 0.5ms + 0.5s pipe + 10ms + 0.5s disk + 0.5ms *)
      feq "disk time charged" 1.011 (Engine.now eng));
  Engine.run eng;
  Alcotest.(check int) "disk bytes" 500_000 (Node.disk_bytes_written server)

let test_undeclared_blocking_handler_refused () =
  (* Couriers run a handler inline: a plain handler that blocks anyway
     is named in the error. *)
  let eng = Engine.create () in
  let server = Node.create eng params ~name:"s" () in
  let client = Node.create eng params ~name:"c" () in
  let ep =
    Rpc.endpoint eng params ~node:server ~name:"slow"
      ~handler:(fun () ~reply ->
        Engine.sleep eng 1.;
        reply ())
  in
  Engine.spawn eng ~name:"caller" (fun () -> Rpc.call ep ~src:client ());
  Alcotest.check_raises "blocking plain handler"
    (Invalid_argument
       "Rpc: the handler of slow blocked; a handler that waits must return \
        the wait as a step (Rpc.step_endpoint)")
    (fun () -> Engine.run eng)

let test_zero_delay_step_is_inline () =
  (* A zero-delay [Sleep] from a step handler goes on in the same event,
     as a zero [Engine.sleep] does: the call dispatches exactly the
     events of a plain handler that replies at once. *)
  let run mk =
    let eng = Engine.create () in
    let server = Node.create eng params ~name:"s" () in
    let client = Node.create eng params ~name:"c" () in
    let ep = mk eng server in
    let at = ref 0. in
    Engine.spawn eng ~name:"caller" (fun () ->
        Rpc.call ep ~src:client ();
        at := Engine.now eng);
    Engine.run eng;
    (Engine.events_dispatched eng, !at)
  in
  let plain =
    run (fun eng server ->
        Rpc.endpoint eng params ~node:server ~name:"svc"
          ~handler:(fun () ~reply -> reply ()))
  in
  let steps =
    run (fun eng server ->
        Rpc.step_endpoint eng params ~node:server ~name:"svc"
          ~handler:(fun () ~reply ->
            Engine.Sleep
              ( 0.,
                fun () ->
                  reply ();
                  Engine.Done )))
  in
  Alcotest.(check int) "events of a plain handler" 7 (fst plain);
  Alcotest.(check int) "no extra event" (fst plain) (fst steps);
  feq "same reply time" (snd plain) (snd steps)

let test_params_b_flush () =
  let p = Params.default in
  let expected =
    p.Params.b_net *. p.Params.b_disk /. (p.Params.b_net +. p.Params.b_disk)
  in
  feq "Eq. 2" expected (Params.b_flush p);
  Alcotest.(check bool) "slower than both" true
    (Params.b_flush p < p.Params.b_net && Params.b_flush p < p.Params.b_disk)

let test_node_no_disk () =
  let eng = Engine.create () in
  let n = Node.create eng params ~name:"diskless" () in
  Alcotest.check_raises "disk access" (Invalid_argument "diskless: node has no disk")
    (fun () -> ignore (Node.disk n))

(* ------------------------------------------------------------------ *)
(* Fenced transport                                                    *)
(* ------------------------------------------------------------------ *)

let fenced_world () =
  let eng = Engine.create () in
  let server = Node.create eng params ~name:"s" () in
  let client = Node.create eng params ~name:"c" () in
  let hits = ref 0 in
  let ep =
    Rpc.endpoint eng params ~node:server ~name:"svc"
      ~handler:(fun x ~reply ->
        incr hits;
        reply (x * 2))
  in
  (eng, server, client, ep, hits)

let test_fenced_timeout_and_stale () =
  let eng, _, client, ep, hits = fenced_world () in
  Rpc.set_epoch ep 2;
  Engine.spawn eng ~name:"caller" (fun () ->
      (* Older-epoch request is fenced off without touching the handler. *)
      (match Rpc.call_fenced ep ~src:client ~timeout:1. ~epoch:1 21 with
      | Rpc.Stale e -> Alcotest.(check int) "fence reports server epoch" 2 e
      | Rpc.Reply _ -> Alcotest.fail "stale request must not be served"
      | Rpc.Timeout -> Alcotest.fail "stale request must not time out");
      Alcotest.(check int) "handler never ran" 0 !hits;
      (* Current-epoch request goes through. *)
      (match Rpc.call_fenced ep ~src:client ~timeout:1. ~epoch:2 21 with
      | Rpc.Reply (v, e) ->
          Alcotest.(check int) "reply value" 42 v;
          Alcotest.(check int) "reply epoch" 2 e
      | _ -> Alcotest.fail "live request must be served");
      (* A down endpoint drops the delivery: the deadline expires. *)
      Rpc.set_down ep true;
      let t0 = Engine.now eng in
      match Rpc.call_fenced ep ~src:client ~timeout:0.5 ~epoch:2 21 with
      | Rpc.Timeout ->
          Alcotest.(check (float 1e-9)) "waited the full deadline" 0.5
            (Engine.now eng -. t0)
      | _ -> Alcotest.fail "down endpoint must time out");
  Engine.run eng

let test_fenced_at_most_once () =
  let eng, _, client, ep, hits = fenced_world () in
  Engine.spawn eng ~name:"caller" (fun () ->
      let first = Rpc.call_fenced ep ~src:client ~epoch:0 ~req_id:7 21 in
      (* Same request id again: the stored reply is replayed, the handler
         does not run a second time. *)
      let second = Rpc.call_fenced ep ~src:client ~epoch:0 ~req_id:7 21 in
      (match (first, second) with
      | Rpc.Reply (a, _), Rpc.Reply (b, _) ->
          Alcotest.(check int) "same answer" a b
      | _ -> Alcotest.fail "both attempts must get the reply");
      Alcotest.(check int) "handler ran once" 1 !hits;
      (* A crash wipes the dedup table: the id becomes fresh again. *)
      Rpc.reset ep;
      (match Rpc.call_fenced ep ~src:client ~epoch:0 ~req_id:7 21 with
      | Rpc.Reply _ -> ()
      | _ -> Alcotest.fail "post-reset attempt must be served");
      Alcotest.(check int) "reset cleared at-most-once state" 2 !hits);
  Engine.run eng

(* Regression: a post-election retry (same request id, newer epoch) must
   never be answered with a reply stored before the epoch bump — the
   entry is purged and the handler re-runs against current state. *)
let test_fenced_dedup_epoch_purge () =
  let eng, _, client, ep, hits = fenced_world () in
  Engine.spawn eng ~name:"caller" (fun () ->
      (match Rpc.call_fenced ep ~src:client ~epoch:0 ~req_id:9 21 with
      | Rpc.Reply (v, e) ->
          Alcotest.(check int) "pre-election value" 42 v;
          Alcotest.(check int) "pre-election epoch" 0 e
      | _ -> Alcotest.fail "first attempt must be served");
      (* Same-epoch retransmission still dedups. *)
      (match Rpc.call_fenced ep ~src:client ~epoch:0 ~req_id:9 21 with
      | Rpc.Reply _ -> ()
      | _ -> Alcotest.fail "same-epoch retry must get the stored reply");
      Alcotest.(check int) "same-epoch retry deduplicated" 1 !hits;
      (* An election bumps the epoch without wiping the endpoint (the
         server survived — it was fenced, not crashed). *)
      Rpc.set_epoch ep 1;
      (match Rpc.call_fenced ep ~src:client ~epoch:1 ~req_id:9 21 with
      | Rpc.Reply (v, e) ->
          Alcotest.(check int) "post-election value" 42 v;
          Alcotest.(check int) "post-election epoch" 1 e
      | _ -> Alcotest.fail "post-election retry must be served");
      Alcotest.(check int) "newer-epoch retry re-ran the handler" 2 !hits;
      (* And the re-run's reply is now the stored one for its epoch. *)
      (match Rpc.call_fenced ep ~src:client ~epoch:1 ~req_id:9 21 with
      | Rpc.Reply _ -> ()
      | _ -> Alcotest.fail "retry after the purge must still dedup");
      Alcotest.(check int) "post-purge retry deduplicated" 2 !hits);
  Engine.run eng

let test_reliable_rides_out_an_outage () =
  let eng, _, client, ep, hits = fenced_world () in
  let rel =
    { Rpc.rel_timeout = 0.02; rel_base_backoff = 0.002; rel_max_backoff = 0.05 }
  in
  let view = Rpc.View.create () in
  Rpc.set_down ep true;
  Engine.spawn eng ~name:"healer" (fun () ->
      Engine.sleep eng 0.1;
      Rpc.set_epoch ep 3;
      Rpc.set_down ep false);
  Engine.spawn eng ~name:"caller" (fun () ->
      let v = Rpc.call_reliable ep ~src:client ~reliability:rel ~view 21 in
      Alcotest.(check int) "eventually answered" 42 v;
      Alcotest.(check bool) "after the outage" true (Engine.now eng > 0.1);
      Alcotest.(check bool) "attempts were retries, not re-executions" true
        (Rpc.View.retries view > 0);
      Alcotest.(check int) "handler ran exactly once" 1 !hits;
      Alcotest.(check int) "epoch bump observed" 3
        (Rpc.View.epoch view (Rpc.name ep)));
  Engine.run eng

let test_reliable_survives_loss_and_dup () =
  let eng, _, client, ep, hits = fenced_world () in
  let rel =
    { Rpc.rel_timeout = 0.02; rel_base_backoff = 0.002; rel_max_backoff = 0.05 }
  in
  let view = Rpc.View.create () in
  let rng = Ccpfs_util.Det_random.create ~seed:0xbadbeef in
  Rpc.set_fault ep ~loss:0.4 ~dup:0.3 ~rng:(fun () ->
      Ccpfs_util.Det_random.float rng 1.);
  let n = 20 in
  Engine.spawn eng ~name:"caller" (fun () ->
      for i = 1 to n do
        Alcotest.(check int) "answer survives the faults" (2 * i)
          (Rpc.call_reliable ep ~src:client ~reliability:rel ~view i)
      done);
  Engine.run eng;
  Alcotest.(check int) "each logical call executed exactly once" n !hits;
  Alcotest.(check bool) "losses forced retries" true (Rpc.View.retries view > 0)

let test_dedup_retention_bound () =
  let eng, _, client, ep, hits = fenced_world () in
  Rpc.set_dedup_cap ep 4;
  Engine.spawn eng ~name:"caller" (fun () ->
      for id = 1 to 10 do
        match Rpc.call_fenced ep ~src:client ~epoch:0 ~req_id:id id with
        | Rpc.Reply _ -> ()
        | _ -> Alcotest.fail "fresh request must be served"
      done;
      Alcotest.(check int) "ten distinct requests executed" 10 !hits;
      (* Ids inside the retention window (the 4 newest) are still
         deduplicated after pruning... *)
      (match Rpc.call_fenced ep ~src:client ~epoch:0 ~req_id:7 7 with
      | Rpc.Reply (v, _) -> Alcotest.(check int) "stored reply replayed" 14 v
      | _ -> Alcotest.fail "replay must get the stored reply");
      (match Rpc.call_fenced ep ~src:client ~epoch:0 ~req_id:10 10 with
      | Rpc.Reply (v, _) -> Alcotest.(check int) "stored reply replayed" 20 v
      | _ -> Alcotest.fail "replay must get the stored reply");
      Alcotest.(check int) "no double execution within the window" 10 !hits;
      (* ...while an id older than the window really was pruned: it
         re-executes, which is what bounds the table. *)
      (match Rpc.call_fenced ep ~src:client ~epoch:0 ~req_id:1 1 with
      | Rpc.Reply _ -> ()
      | _ -> Alcotest.fail "pruned id must be served afresh");
      Alcotest.(check int) "oldest entries were evicted" 11 !hits);
  Engine.run eng

(* Regression: the epoch-bump purge leaves the re-submitted id in the
   retention order twice.  When the stale older slot reached the front,
   pruning evicted the new completed entry instead of the oldest live
   one, and the next retransmission re-ran the handler. *)
let test_dedup_resubmission_survives_pruning () =
  let eng, _, client, ep, hits = fenced_world () in
  Rpc.set_dedup_cap ep 2;
  let served ~epoch id =
    match Rpc.call_fenced ep ~src:client ~epoch ~req_id:id id with
    | Rpc.Reply _ -> ()
    | _ -> Alcotest.fail "request must be served"
  in
  Engine.spawn eng ~name:"caller" (fun () ->
      served ~epoch:0 9;
      served ~epoch:0 5;
      Rpc.set_epoch ep 1;
      served ~epoch:1 9;
      Alcotest.(check int) "re-submission re-ran the handler" 3 !hits;
      served ~epoch:1 1;
      Alcotest.(check int) "fresh id executed" 4 !hits;
      (* over the cap by one: the oldest live entry (5) goes, not the
         re-submitted 9, which is newer *)
      served ~epoch:1 9;
      Alcotest.(check int) "retransmission deduplicated" 4 !hits;
      served ~epoch:1 5;
      Alcotest.(check int) "oldest entry was the one evicted" 5 !hits);
  Engine.run eng

let test_backoff_plateaus_under_long_outage () =
  let eng, _, client, ep, hits = fenced_world () in
  let rel =
    (* rel_timeout must exceed the served round trip (rtt + 1/OPS = 11 ms)
       or the call livelocks: the reply would always arrive just after the
       deadline. *)
    { Rpc.rel_timeout = 0.02; rel_base_backoff = 0.001; rel_max_backoff = 0.008 }
  in
  let view = Rpc.View.create () in
  Rpc.set_down ep true;
  Engine.spawn eng ~name:"healer" (fun () ->
      Engine.sleep eng 10.;
      Rpc.set_down ep false);
  Engine.spawn eng ~name:"caller" (fun () ->
      let v = Rpc.call_reliable ep ~src:client ~reliability:rel ~view 21 in
      Alcotest.(check int) "answered after the outage" 42 v);
  Engine.run eng;
  Alcotest.(check int) "handler ran exactly once" 1 !hits;
  (* With the accumulator clamped at rel_max_backoff, each attempt costs
     at most timeout + 1.5 * max_backoff = 32 ms, so a 10 s outage takes
     >300 attempts.  An unclamped accumulator doubles past the outage
     length by attempt ~15 and would retry only a couple dozen times. *)
  Alcotest.(check bool)
    (Printf.sprintf "retry cadence plateaued (%d retries)"
       (Rpc.View.retries view))
    true
    (Rpc.View.retries view > 300)

let test_couriers_in_blocked_report () =
  (* Step couriers show in post-mortems as fiber processes do: a request
     courier in propagation sleeps, a send courier waits on the
     endpoint's context, the same one a blocking caller waits on. *)
  let eng, _, client, ep, _ = fenced_world () in
  Rpc.set_down ep true;
  Engine.spawn eng ~name:"sender" (fun () ->
      Rpc.send_reliable ep ~src:client ~view:(Rpc.View.create ()) 1);
  Engine.spawn eng ~name:"caller" (fun () ->
      ignore (Rpc.call_reliable ep ~src:client ~view:(Rpc.View.create ()) 2));
  let report bs =
    List.map (fun b -> Format.asprintf "%d %a" b.Engine.b_pid Engine.pp_blocked b) bs
  in
  Engine.run ~until:1e-4 eng;
  Alcotest.(check (list string)) "mid-flight"
    [ "2 caller blocked on rpc:svc"; "3 svc.send blocked on rpc:svc";
      "4 svc.req blocked on sleep"; "5 svc.req blocked on sleep" ]
    (report (Engine.blocked_report eng));
  match Engine.run eng with
  | () -> Alcotest.fail "requests to a down endpoint were answered"
  | exception Engine.Deadlock bs ->
      Alcotest.(check (list string)) "deadlock report"
        [ "2 caller blocked on rpc:svc"; "3 svc.send blocked on rpc:svc" ]
        (report bs)

let suite =
  [
    ( "net.rpc",
      [
        Alcotest.test_case "call latency" `Quick test_call_latency;
        Alcotest.test_case "payload bandwidth" `Quick
          test_call_payload_bandwidth;
        Alcotest.test_case "server OPS serialise calls" `Quick
          test_server_ops_serialise;
        Alcotest.test_case "deferred reply" `Quick test_deferred_reply;
        Alcotest.test_case "notify is non-blocking" `Quick
          test_notify_does_not_block;
        Alcotest.test_case "blocking handler on disk" `Quick
          test_blocking_handler_uses_disk;
        Alcotest.test_case "blocking plain handler refused" `Quick
          test_undeclared_blocking_handler_refused;
        Alcotest.test_case "zero-delay step adds no event" `Quick
          test_zero_delay_step_is_inline;
      ] );
    ( "net.fenced",
      [
        Alcotest.test_case "epoch fence + timeout" `Quick
          test_fenced_timeout_and_stale;
        Alcotest.test_case "at-most-once dedup" `Quick test_fenced_at_most_once;
        Alcotest.test_case "newer-epoch retry purges stale dedup entry" `Quick
          test_fenced_dedup_epoch_purge;
        Alcotest.test_case "dedup retention is bounded" `Quick
          test_dedup_retention_bound;
        Alcotest.test_case "re-submission survives dedup pruning" `Quick
          test_dedup_resubmission_survives_pruning;
        Alcotest.test_case "retry backoff plateaus in a long outage" `Quick
          test_backoff_plateaus_under_long_outage;
        Alcotest.test_case "reliable call rides out an outage" `Quick
          test_reliable_rides_out_an_outage;
        Alcotest.test_case "reliable call survives loss + duplication" `Quick
          test_reliable_survives_loss_and_dup;
        Alcotest.test_case "step couriers in blocked reports" `Quick
          test_couriers_in_blocked_report;
      ] );
    ( "net.params",
      [
        Alcotest.test_case "b_flush (Eq. 2)" `Quick test_params_b_flush;
        Alcotest.test_case "diskless node" `Quick test_node_no_disk;
      ] );
  ]
