(* Tests for the discrete-event engine and its synchronisation
   primitives (lib/sim). *)

open Dessim

let feq = Alcotest.(check (float 1e-9))

let test_clock_and_sleep () =
  let eng = Engine.create () in
  let log = ref [] in
  Engine.spawn eng ~name:"a" (fun () ->
      Engine.sleep eng 1.0;
      log := ("a", Engine.now eng) :: !log;
      Engine.sleep eng 2.0;
      log := ("a2", Engine.now eng) :: !log);
  Engine.spawn eng ~name:"b" (fun () ->
      Engine.sleep eng 1.5;
      log := ("b", Engine.now eng) :: !log);
  Engine.run eng;
  feq "final time" 3.0 (Engine.now eng);
  let order = List.rev_map fst !log in
  Alcotest.(check (list string)) "event order" [ "a"; "b"; "a2" ] order

let test_deterministic_tie_break () =
  (* Two processes waking at the same instant run in spawn order. *)
  let run () =
    let eng = Engine.create () in
    let log = ref [] in
    List.iter
      (fun name ->
        Engine.spawn eng ~name (fun () ->
            Engine.sleep eng 1.0;
            log := name :: !log))
      [ "p1"; "p2"; "p3" ];
    Engine.run eng;
    List.rev !log
  in
  Alcotest.(check (list string)) "spawn order" [ "p1"; "p2"; "p3" ] (run ());
  Alcotest.(check (list string)) "reproducible" (run ()) (run ())

let test_run_until () =
  let eng = Engine.create () in
  let hit = ref 0 in
  Engine.spawn eng ~name:"p" (fun () ->
      Engine.sleep eng 1.0;
      incr hit;
      Engine.sleep eng 10.;
      incr hit);
  Engine.run ~until:5.0 eng;
  Alcotest.(check int) "first wake only" 1 !hit;
  feq "paused at until" 5.0 (Engine.now eng);
  Engine.run eng;
  Alcotest.(check int) "resumed" 2 !hit;
  feq "completed" 11.0 (Engine.now eng)

(* An [until] before the clock would move it backwards, after which [at]
   would accept times earlier than events already dispatched. *)
let test_run_until_past () =
  let eng = Engine.create () in
  Engine.spawn eng ~name:"p" (fun () -> Engine.sleep eng 2.);
  Engine.run ~until:1.5 eng;
  List.iter
    (fun until ->
      Alcotest.check_raises "past until"
        (Invalid_argument "Engine.run: until is before now or NaN")
        (fun () -> Engine.run ~until eng))
    [ 1.; nan ];
  feq "clock kept" 1.5 (Engine.now eng);
  Engine.run ~until:1.5 eng;
  Alcotest.(check int) "an until at now dispatches nothing" 1
    (Engine.events_dispatched eng);
  Engine.run eng;
  feq "completed" 2. (Engine.now eng)

let test_deadlock_detection () =
  let eng = Engine.create () in
  let mb : int Mailbox.t = Mailbox.create eng in
  Engine.spawn eng ~name:"stuck" (fun () -> ignore (Mailbox.recv mb));
  (try
     Engine.run eng;
     Alcotest.fail "expected deadlock"
   with Engine.Deadlock blocked ->
     Alcotest.(check (list string))
       "blocked names" [ "stuck" ]
       (Engine.blocked_names blocked);
     match blocked with
     | [ b ] ->
         Alcotest.(check (option string))
           "wait context" (Some "mailbox") b.Engine.b_context
     | _ -> Alcotest.fail "expected one blocked process")

let test_deadlock_reports_daemons () =
  (* A deadlock report must show blocked daemons with their wait context,
     or a stuck server daemon stays opaque. *)
  let eng = Engine.create () in
  let mb : int Mailbox.t = Mailbox.create eng in
  let cond = Condition.create eng in
  Engine.spawn eng ~daemon:true ~name:"flushd" (fun () ->
      Condition.wait ~ctx:"flush-work" cond);
  Engine.spawn eng ~name:"stuck" (fun () -> ignore (Mailbox.recv mb));
  try
    Engine.run eng;
    Alcotest.fail "expected deadlock"
  with Engine.Deadlock blocked ->
    Alcotest.(check (list string))
      "non-daemons only by default" [ "stuck" ]
      (Engine.blocked_names blocked);
    Alcotest.(check (list string))
      "daemons included on demand" [ "flushd"; "stuck" ]
      (List.sort compare (Engine.blocked_names ~daemons:true blocked));
    let daemon =
      List.find (fun b -> b.Engine.b_daemon) blocked
    in
    Alcotest.(check (option string))
      "daemon wait context" (Some "flush-work") daemon.Engine.b_context

let test_daemon_does_not_deadlock () =
  let eng = Engine.create () in
  let mb : int Mailbox.t = Mailbox.create eng in
  Engine.spawn eng ~daemon:true ~name:"daemon" (fun () ->
      ignore (Mailbox.recv mb));
  Engine.spawn eng ~name:"worker" (fun () -> Engine.sleep eng 1.0);
  Engine.run eng;
  feq "finished" 1.0 (Engine.now eng)

let test_daemon_polling_stops_with_work () =
  (* A periodic daemon must not keep the simulation alive once all
     regular processes are done. *)
  let eng = Engine.create () in
  let polls = ref 0 in
  Engine.spawn eng ~daemon:true ~name:"poller" (fun () ->
      while true do
        Engine.sleep eng 0.1;
        incr polls
      done);
  Engine.spawn eng ~name:"worker" (fun () -> Engine.sleep eng 1.05);
  Engine.run eng;
  Alcotest.(check bool) "daemon polled during work" true (!polls >= 10);
  Alcotest.(check bool) "stopped promptly" true (!polls <= 11)

let test_mailbox_fifo () =
  let eng = Engine.create () in
  let mb = Mailbox.create eng in
  let got = ref [] in
  Engine.spawn eng ~name:"recv" (fun () ->
      for _ = 1 to 3 do
        got := Mailbox.recv mb :: !got
      done);
  Engine.spawn eng ~name:"send" (fun () ->
      Mailbox.send mb 1;
      Engine.sleep eng 0.5;
      Mailbox.send mb 2;
      Mailbox.send mb 3);
  Engine.run eng;
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3 ] (List.rev !got)

let test_mailbox_many_waiters () =
  let eng = Engine.create () in
  let mb = Mailbox.create eng in
  let got = ref [] in
  for i = 1 to 3 do
    Engine.spawn eng ~name:(Printf.sprintf "r%d" i) (fun () ->
        let v = Mailbox.recv mb in
        got := (i, v) :: !got)
  done;
  Engine.spawn eng ~name:"send" (fun () ->
      Engine.sleep eng 1.;
      List.iter (Mailbox.send mb) [ 10; 20; 30 ]);
  Engine.run eng;
  Alcotest.(check (list (pair int int)))
    "waiters served fifo"
    [ (1, 10); (2, 20); (3, 30) ]
    (List.rev !got)

let test_ivar () =
  let eng = Engine.create () in
  let iv = Ivar.create eng in
  let seen = ref [] in
  for i = 1 to 2 do
    Engine.spawn eng ~name:(Printf.sprintf "r%d" i) (fun () ->
        let v = Ivar.read iv in
        seen := (i, v, Engine.now eng) :: !seen)
  done;
  Engine.spawn eng ~name:"filler" (fun () ->
      Engine.sleep eng 2.;
      Ivar.fill iv 42);
  Engine.run eng;
  Alcotest.(check int) "both resumed" 2 (List.length !seen);
  List.iter
    (fun (_, v, t) ->
      Alcotest.(check int) "value" 42 v;
      feq "at fill time" 2. t)
    !seen;
  Alcotest.check_raises "double fill" (Invalid_argument "Ivar.fill: already filled")
    (fun () -> Ivar.fill iv 0)

let test_semaphore_mutex () =
  let eng = Engine.create () in
  let sem = Semaphore.create eng 1 in
  let active = ref 0 and max_active = ref 0 in
  for i = 1 to 4 do
    Engine.spawn eng ~name:(Printf.sprintf "w%d" i) (fun () ->
        Semaphore.with_permit sem (fun () ->
            incr active;
            if !active > !max_active then max_active := !active;
            Engine.sleep eng 1.0;
            decr active))
  done;
  Engine.run eng;
  Alcotest.(check int) "mutual exclusion" 1 !max_active;
  feq "serialized" 4.0 (Engine.now eng)

let test_semaphore_counting () =
  let eng = Engine.create () in
  let sem = Semaphore.create eng 2 in
  Engine.spawn eng ~name:"w" (fun () ->
      Semaphore.acquire sem;
      Semaphore.acquire sem;
      Alcotest.(check int) "none left" 0 (Semaphore.available sem);
      Semaphore.release sem;
      Semaphore.release sem;
      Alcotest.(check int) "restored" 2 (Semaphore.available sem));
  Engine.run eng

let test_resource_fifo_rate () =
  let eng = Engine.create () in
  let r = Resource.create eng ~rate:10. () in
  let t1 = ref 0. and t2 = ref 0. in
  Engine.spawn eng ~name:"a" (fun () ->
      Resource.consume r 10.;
      t1 := Engine.now eng);
  Engine.spawn eng ~name:"b" (fun () ->
      Resource.consume r 20.;
      t2 := Engine.now eng);
  Engine.run eng;
  feq "first done at 1s" 1.0 !t1;
  feq "second queued behind" 3.0 !t2;
  feq "busy accounting" 3.0 (Resource.busy_seconds r)

let test_resource_idle_gap () =
  let eng = Engine.create () in
  let r = Resource.create eng ~rate:10. () in
  Engine.spawn eng ~name:"a" (fun () ->
      Resource.consume r 10.;
      Engine.sleep eng 5.;
      Resource.consume r 10.;
      feq "no charge for idle gap" 7.0 (Engine.now eng));
  Engine.run eng;
  feq "busy excludes idle" 2.0 (Resource.busy_seconds r)

let test_condition () =
  let eng = Engine.create () in
  let cond = Condition.create eng in
  let state = ref 0 in
  let woke = ref (-1.) in
  Engine.spawn eng ~name:"waiter" (fun () ->
      Condition.wait_until cond (fun () -> !state >= 3);
      woke := Engine.now eng);
  Engine.spawn eng ~name:"producer" (fun () ->
      for _ = 1 to 3 do
        Engine.sleep eng 1.;
        incr state;
        Condition.broadcast cond
      done);
  Engine.run eng;
  feq "woke when predicate held" 3.0 !woke

let test_nested_spawn () =
  let eng = Engine.create () in
  let log = ref [] in
  Engine.spawn eng ~name:"parent" (fun () ->
      Engine.sleep eng 1.;
      Engine.spawn eng ~name:"child" (fun () ->
          Engine.sleep eng 1.;
          log := "child" :: !log);
      log := "parent" :: !log);
  Engine.run eng;
  Alcotest.(check (list string)) "both ran" [ "parent"; "child" ] (List.rev !log);
  feq "child extended the run" 2.0 (Engine.now eng)

let test_crash_leaves_engine_consistent () =
  (* An exception escaping a process body unwinds through [run] to the
     caller; the engine must not keep the dead process as [current] or in
     the blocked set, and must remain resumable. *)
  let eng = Engine.create () in
  let survived = ref false in
  Engine.spawn eng ~name:"crasher" (fun () ->
      Engine.sleep eng 1.0;
      failwith "boom");
  Engine.spawn eng ~name:"survivor" (fun () ->
      Engine.sleep eng 2.0;
      survived := true);
  (try
     Engine.run eng;
     Alcotest.fail "expected the crash to escape run"
   with Failure msg -> Alcotest.(check string) "the crash itself" "boom" msg);
  Alcotest.(check (option string))
    "no stale current process" None (Engine.current_name eng);
  Alcotest.(check (list string))
    "post-mortem blames only live waiters" [ "survivor" ]
    (Engine.blocked_names (Engine.blocked_report eng));
  Engine.run eng;
  Alcotest.(check bool) "engine resumable after crash" true !survived;
  feq "survivor finished on time" 2.0 (Engine.now eng)

let test_crash_in_suspend_register () =
  (* A blocking primitive that fails while registering its wakeup must
     deliver the exception into the fiber (so the same cleanup runs),
     not abort the scheduler mid-dispatch. *)
  let eng = Engine.create () in
  Engine.spawn eng ~name:"bad-blocker" (fun () ->
      Engine.suspend ~ctx:"broken" eng (fun _resume ->
          invalid_arg "broken primitive"));
  (try
     Engine.run eng;
     Alcotest.fail "expected the register failure to escape run"
   with Invalid_argument msg ->
     Alcotest.(check string) "register's exception" "broken primitive" msg);
  Alcotest.(check (option string))
    "no stale current process" None (Engine.current_name eng);
  Alcotest.(check (list string))
    "dead process not reported blocked" []
    (Engine.blocked_names (Engine.blocked_report eng))

let test_many_processes_scale () =
  let eng = Engine.create () in
  let n = 10_000 in
  let done_count = ref 0 in
  for i = 1 to n do
    Engine.spawn eng ~name:(Printf.sprintf "p%d" i) (fun () ->
        Engine.sleep eng (float_of_int (i mod 17) *. 0.001);
        incr done_count)
  done;
  Engine.run eng;
  Alcotest.(check int) "all completed" n !done_count

let test_blocked_report_mid_run () =
  (* A post-mortem taken while the run is paused: sleepers (found through
     their pending wake events) and suspended processes (the blocked
     table) together, in pid order, each with its context. *)
  let eng = Engine.create () in
  let mb : int Mailbox.t = Mailbox.create eng in
  let cond = Condition.create eng in
  Engine.spawn eng ~name:"sleeper-a" (fun () -> Engine.sleep eng 10.);
  Engine.spawn eng ~name:"waiter" (fun () ->
      ignore (Mailbox.recv ~ctx:"inbox" mb));
  Engine.spawn eng ~daemon:true ~name:"flushd" (fun () ->
      Condition.wait ~ctx:"flush-work" cond);
  Engine.spawn eng ~name:"quick" (fun () -> Engine.sleep eng 0.5);
  Engine.spawn eng ~name:"sleeper-b" (fun () ->
      Engine.sleep eng 1.;
      Engine.sleep eng 20.);
  let report () =
    List.map
      (fun b -> Format.asprintf "%d %a" b.Engine.b_pid Engine.pp_blocked b)
      (Engine.blocked_report eng)
  in
  let check = Alcotest.(check (list string)) in
  Engine.run ~until:5. eng;
  check "sleepers and suspended, pid order"
    [ "1 sleeper-a blocked on sleep"; "2 waiter blocked on inbox";
      "3 flushd (daemon) blocked on flush-work"; "5 sleeper-b blocked on sleep" ]
    (report ());
  Mailbox.send mb 7;
  Engine.run ~until:15. eng;
  check "woken processes drop out"
    [ "3 flushd (daemon) blocked on flush-work"; "5 sleeper-b blocked on sleep" ]
    (report ());
  Engine.run eng;
  feq "ran to the last wake" 21. (Engine.now eng);
  check "only the daemon is left" [ "3 flushd (daemon) blocked on flush-work" ]
    (report ())

(* Daemons' sleeps wait in the daemon heap, beside the dispatch heap:
   the post-mortem must find them there too, fiber and step process
   alike, also once the last regular process has finished and [run]
   returned with their wakes still queued. *)
let test_blocked_report_sleeping_daemon () =
  let eng = Engine.create () in
  Engine.spawn eng ~daemon:true ~name:"tick" (fun () ->
      while true do
        Engine.sleep eng 0.05
      done);
  let rec idle () = Engine.Sleep (0.05, idle) in
  Engine.spawn_steps eng ~daemon:true ~name:(Engine.proc_name "flushd") idle;
  Engine.spawn eng ~name:"worker" (fun () -> Engine.sleep eng 0.12);
  let report () =
    List.map
      (fun b -> Format.asprintf "%d %a" b.Engine.b_pid Engine.pp_blocked b)
      (Engine.blocked_report eng)
  in
  let check = Alcotest.(check (list string)) in
  Engine.run ~until:0.07 eng;
  check "daemons and the regular sleeper"
    [ "1 tick (daemon) blocked on sleep"; "2 flushd (daemon) blocked on sleep";
      "3 worker blocked on sleep" ]
    (report ());
  Engine.run eng;
  feq "stopped with the worker" 0.12 (Engine.now eng);
  check "only the daemons are left"
    [ "1 tick (daemon) blocked on sleep"; "2 flushd (daemon) blocked on sleep" ]
    (report ())

(* A sleep writes no wait context: the post-mortem reports "sleep" for
   every process it finds through a queued wake, step process and fiber
   alike, and a suspended process's own context.  Once the sleepers
   have suspended too, the report and the [Deadlock] carry the contexts
   they suspended on, not a sleep's.  The report is taken inside
   handlers, whose own event is still at the heap's root: a plain
   thunk's, and a [Wait]'s register, whose process is then both blocked
   and at the root (it must be listed once).  It is taken again after a
   handler raised out of [run], which then resumes to the deadlock. *)
let test_sleep_context_derived () =
  let eng = Engine.create () in
  let show bs =
    List.map
      (fun b -> Format.asprintf "%d %a" b.Engine.b_pid Engine.pp_blocked b)
      bs
  in
  let report () = show (Engine.blocked_report eng) in
  let in_register = ref [] and in_thunk = ref [] in
  Engine.spawn_steps eng ~name:(Engine.proc_name "steps") (fun () ->
      Engine.Sleep
        ( 1.,
          fun () -> Engine.Wait (Some "gate", ignore, fun () -> Engine.Done) ));
  Engine.spawn eng ~name:"fiber" (fun () ->
      Engine.sleep eng 1.;
      Engine.suspend eng ignore);
  Engine.spawn_steps eng ~name:(Engine.proc_name "waiter") (fun () ->
      Engine.Wait
        ( Some "inbox",
          (fun _ -> in_register := report ()),
          fun () -> Engine.Done ));
  Engine.schedule eng ~delay:0.5 (fun () -> in_thunk := report ());
  Engine.schedule eng ~delay:0.75 (fun () -> failwith "boom");
  let check = Alcotest.(check (list string)) in
  let asleep =
    [ "1 steps blocked on sleep"; "2 fiber blocked on sleep";
      "3 waiter blocked on inbox" ]
  in
  (match Engine.run eng with
  | () -> Alcotest.fail "expected the raise to escape run"
  | exception Failure _ -> ());
  check "inside a register" asleep !in_register;
  check "inside a thunk" asleep !in_thunk;
  check "after a handler raised" asleep (report ());
  match Engine.run eng with
  | () -> Alcotest.fail "expected a deadlock"
  | exception Engine.Deadlock bs ->
      let stuck =
        [ "1 steps blocked on gate"; "2 fiber blocked on <unknown>";
          "3 waiter blocked on inbox" ]
      in
      check "deadlock contexts" stuck (show bs);
      check "report after the deadlock" stuck (report ())

(* A 32-client by 8-write PW convoy on one lock server (seeded think
   time before each whole-file write): many small
   control RPCs queued on one server, the dispatch-bound case.  The
   count and fingerprint were taken from the parallel-array heap that
   preceded the index heap. *)
let test_pw_convoy_stream_pin () =
  let open Ccpfs in
  let config = Config.with_replication 0 Config.default in
  let cl =
    Cluster.create ~config ~policy:Seqdlm.Policy.seqdlm ~n_servers:1
      ~n_clients:32 ()
  in
  let eng = Cluster.engine cl in
  let root = Ccpfs_util.Det_random.create ~seed:1 in
  for i = 0 to 31 do
    let rng = Ccpfs_util.Det_random.split root in
    Cluster.spawn_client cl i ~name:(Printf.sprintf "w%d" i) (fun c ->
        let f = Client.open_file c ~create:true "/convoy" in
        for _ = 1 to 8 do
          Engine.sleep eng (Ccpfs_util.Det_random.float rng 50e-6);
          Client.write ~mode:Seqdlm.Mode.PW ~lock_whole_range:true c f ~off:0
            ~len:(64 * 1024)
        done)
  done;
  Engine.run eng;
  Cluster.fsync_all cl;
  Cluster.check_invariants cl;
  Alcotest.(check int) "engine events" 5992 (Engine.events_dispatched eng);
  Alcotest.(check int64) "engine fingerprint" (-996989079947805642L)
    (Engine.fingerprint eng)

(* A random program over the engine's scheduling calls, driven by one
   seed.  Each event it creates takes the next id, in the order the
   engine assigns its sequence numbers, and logs (time, id) when it
   runs.  Delays come from a four-value set, so timestamps collide all
   the time, and a burst of [at] arrivals keeps more than 1,024 events
   pending from the start (past the queue's initial capacity).  The run
   pauses at [run ~until], schedules more from outside, and resumes.
   Every process is a daemon, so the run drains the queue.  The dispatch
   log must be exactly the (time, id) sort of everything scheduled. *)
let queue_order_holds seed =
  let rng = Ccpfs_util.Det_random.create ~seed in
  let eng = Engine.create () in
  let delays = [| 0.; 0.25; 0.5; 1. |] in
  let delay () = Ccpfs_util.Det_random.pick rng delays in
  let next_id = ref 0 and budget = ref 3000 in
  let scheduled = ref [] and dispatched = ref [] in
  let fresh time =
    incr next_id;
    scheduled := (time, !next_id) :: !scheduled;
    !next_id
  in
  let log id = dispatched := (Engine.now eng, id) :: !dispatched in
  let rec act () =
    for _ = 1 to Ccpfs_util.Det_random.int rng 3 do
      if !budget > 0 then begin
        decr budget;
        match Ccpfs_util.Det_random.int rng 4 with
        | 0 ->
            let d = delay () in
            let id = fresh (Engine.now eng +. d) in
            Engine.schedule eng ~delay:d (fun () -> log id; act ())
        | 1 ->
            let time = Engine.now eng +. delay () in
            let id = fresh time in
            Engine.at eng ~time (fun () -> log id; act ())
        | _ ->
            let id = fresh (Engine.now eng) in
            Engine.spawn eng ~daemon:true ~name:(string_of_int id) (fun () ->
                log id;
                for _ = 1 to Ccpfs_util.Det_random.int rng 4 do
                  (* a zero sleep is no event; draw a positive one *)
                  let d = 0.25 +. delay () in
                  let id = fresh (Engine.now eng +. d) in
                  Engine.sleep eng d;
                  log id;
                  act ()
                done)
      end
    done
  in
  for _ = 1 to 1500 do
    let time = float_of_int (Ccpfs_util.Det_random.int rng 40) *. 0.25 in
    let id = fresh time in
    Engine.at eng ~time (fun () -> log id; act ())
  done;
  Engine.run ~until:4.6 eng;
  let paused = Engine.now eng in
  budget := !budget + 200;
  act ();
  act ();
  Engine.run eng;
  let by_key (t1, i1) (t2, i2) =
    match Float.compare t1 t2 with 0 -> Int.compare i1 i2 | c -> c
  in
  let expect = List.sort by_key !scheduled in
  let got = List.rev !dispatched in
  paused = 4.6
  && List.length got = List.length expect
  && List.for_all2 (fun a b -> by_key a b = 0) got expect

let prop_queue_order =
  QCheck.Test.make ~name:"dispatch order = (time, seq) sort" ~count:40
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000))
    queue_order_holds

(* The differential property for the event queue: one random program
   over [schedule], [at] (in time order and out of it), [sleep],
   [spawn] and [suspend]/resume, run on the engine and on the
   reference engine that keeps the single parallel-array heap
   ([Ref_engine]).  Every dispatched event resumes program code, which
   logs (time, pid, name) there, so the two logs, event counts and
   fingerprints must be identical.  Two up-front bursts push the lane
   and the heap past their initial 1,024 entries.  The lane's burst
   ends before t = 1.9, so later arrivals find it empty or short and
   tie with heap events of smaller seq.  Daemons and regular processes
   interleave: a regular anchor sleeps in half-second steps until
   t = 20, the bursts queue daemons that wake on the quarter-second
   grid every other event also lands on, and the program spawns both
   kinds (a regular process only sleeps, so it always finishes).  The
   run pauses twice at [run ~until] with daemons asleep, and the
   program schedules more from outside.  The mode adds a seeded tie
   chooser or event jitter, installed after the bursts are queued
   (mode 1, 2), at the first pause (mode 3) or by a daemon's handler
   (mode 4), with the handler's own event still at the daemon heap's
   root.

   A dispatched event stays at its heap's root until its handler's
   first push there takes its place, so the program's handlers push in
   every shape: several events at once, nothing, or only into the other
   heap (a daemon's last event spawns a regular process, a regular
   process's last event resumes a suspended daemon).  After the first
   pause, a plain thunk and a daemon raise [Boom] out of [run]; the
   run resumes, after a [post_mortem] (the engine's [blocked_report])
   every other time. *)
exception Boom

module type QUEUE_ENGINE = sig
  type t

  val create : unit -> t
  val now : t -> float
  val schedule : t -> ?delay:float -> (unit -> unit) -> unit
  val at : t -> time:float -> (unit -> unit) -> unit
  val spawn : t -> ?daemon:bool -> name:string -> (unit -> unit) -> unit
  val sleep : t -> float -> unit
  val suspend : t -> ((unit -> unit) -> unit) -> unit
  val run : ?until:float -> t -> unit
  val current_pid : t -> int
  val current_name : t -> string option
  val events_dispatched : t -> int
  val fingerprint : t -> int64
  val set_tie_chooser : t -> (int -> int) -> unit
  val set_event_jitter : t -> (unit -> float) -> unit
  val post_mortem : t -> unit
end

module Queue_program (E : QUEUE_ENGINE) = struct
  let run ~seed ~mode =
    let module R = Ccpfs_util.Det_random in
    let rng = R.create ~seed in
    let eng = E.create () in
    let delays = [| 0.; 0.25; 0.5; 1. |] in
    let delay () = R.pick rng delays in
    let budget = ref 1500 and last_at = ref 0. and names = ref 0 in
    let waiting = ref [] and log = ref [] in
    let note () =
      log := (E.now eng, E.current_pid eng, E.current_name eng) :: !log
    in
    let resume_one () =
      match !waiting with
      | [] -> ()
      | ws ->
          let k = R.int rng (List.length ws) in
          let r = List.nth ws k in
          waiting := List.filteri (fun i _ -> i <> k) ws;
          r ()
    in
    let rec act () =
      for _ = 1 to R.int rng 3 do
        if !budget > 0 then begin
          decr budget;
          match R.int rng 9 with
          | 0 -> E.schedule eng ~delay:(delay ()) (fun () -> note (); act ())
          | 1 ->
              last_at :=
                Float.max !last_at (E.now eng) +. R.pick rng [| 0.; 0.; 0.025 |];
              E.at eng ~time:!last_at (fun () -> note (); act ())
          | 2 ->
              E.at eng ~time:(E.now eng +. delay ()) (fun () -> note (); act ())
          | 3 -> resume_one ()
          | 4 ->
              incr names;
              E.spawn eng ~name:(string_of_int !names) (fun () ->
                  note ();
                  for _ = 1 to R.int rng 4 do
                    E.sleep eng (0.25 +. delay ());
                    note ();
                    act ()
                  done)
          | 5 ->
              E.schedule eng ~delay:(delay ()) (fun () ->
                  note ();
                  for _ = 0 to 1 + R.int rng 2 do
                    E.schedule eng ~delay:(delay ()) note
                  done)
          | 6 ->
              incr names;
              let name = string_of_int !names in
              E.spawn eng ~daemon:true ~name (fun () ->
                  E.sleep eng (0.25 +. delay ());
                  note ();
                  E.spawn eng ~name:(name ^ "r") (fun () ->
                      note ();
                      E.sleep eng (0.25 +. delay ());
                      note ();
                      resume_one ()))
          | _ ->
              incr names;
              E.spawn eng ~daemon:true ~name:(string_of_int !names) (fun () ->
                  note ();
                  for _ = 1 to R.int rng 4 do
                    if R.int rng 3 = 0 then
                      E.suspend eng (fun r -> waiting := r :: !waiting)
                    else E.sleep eng (0.25 +. delay ());
                    note ();
                    act ()
                  done)
        end
      done
    in
    let sleeper ~daemon ~name period =
      E.spawn eng ~daemon ~name (fun () ->
          note ();
          while E.now eng < 20. do
            E.sleep eng period;
            note ()
          done)
    in
    let levers () =
      let lever = R.create ~seed:(seed + 1) in
      if mode = 2 then
        E.set_event_jitter eng (fun () -> R.pick lever [| 0.; 0.; 0.25 |])
      else E.set_tie_chooser eng (fun n -> R.int lever n)
    in
    for i = 1 to 1500 do
      (* in time order: the lane *)
      last_at := float_of_int (i / 20) *. 0.025;
      E.at eng ~time:!last_at (fun () -> note (); act ())
    done;
    sleeper ~daemon:false ~name:"anchor" 0.5;
    for i = 1 to 600 do
      (* behind the last arrival, or scheduled: the heap *)
      let time = float_of_int (R.int rng 74) *. 0.025 in
      E.at eng ~time (fun () -> note (); act ());
      let delay = float_of_int (R.int rng 376) *. 0.025 in
      E.schedule eng ~delay (fun () -> note (); act ());
      if i mod 10 = 0 then
        sleeper ~daemon:true ~name:(Printf.sprintf "d%d" i)
          (float_of_int (1 + R.int rng 8) *. 0.25)
    done;
    if mode = 1 || mode = 2 then levers ();
    if mode = 4 then
      E.spawn eng ~daemon:true ~name:"lever" (fun () ->
          E.sleep eng 1.3;
          note ();
          levers ();
          act ();
          E.sleep eng 0.25;
          note ());
    let booms = ref 0 in
    let rec run_through ?until () =
      match E.run ?until eng with
      | () -> ()
      | exception Boom ->
          incr booms;
          if !booms mod 2 = 1 then E.post_mortem eng;
          run_through ?until ()
    in
    run_through ~until:2.6 ();
    if mode = 3 then levers ();
    budget := !budget + 1500;
    act ();
    E.schedule eng ~delay:0.5 (fun () -> note (); raise Boom);
    E.schedule eng ~delay:0.75 (fun () -> note (); act (); raise Boom);
    E.spawn eng ~daemon:true ~name:"boom" (fun () ->
        E.sleep eng 1.;
        note ();
        raise Boom);
    run_through ~until:6.1 ();
    budget := !budget + 1000;
    act ();
    resume_one ();
    run_through ();
    (List.rev !log, E.events_dispatched eng, E.fingerprint eng)
end

module Prod_queue = Queue_program (struct
  include Engine

  let suspend t register = Engine.suspend t register
  let post_mortem t = ignore (Engine.blocked_report t)
end)

module Ref_queue = Queue_program (struct
  include Ref_engine

  let post_mortem _ = ()
end)

let queue_matches_reference (seed, mode) =
  let log, n, fp = Prod_queue.run ~seed ~mode in
  let log', n', fp' = Ref_queue.run ~seed ~mode in
  n > 2700 && n = n' && Int64.equal fp fp' && log = log'

let prop_queue_reference =
  QCheck.Test.make ~name:"queue = parallel-array reference" ~count:40
    (QCheck.make
       ~print:(fun (s, m) -> Printf.sprintf "seed %d, mode %d" s m)
       QCheck.Gen.(pair (int_bound 1_000_000) (int_bound 4)))
    queue_matches_reference

(* A chooser installed after arrivals are queued must still be offered
   them: the arrival at t = 1 went into the lane, the scheduled thunk
   tied with it into the heap, and both orders must be reachable. *)
let test_tie_chooser_sees_lane () =
  let order pick =
    let eng = Engine.create () in
    let log = ref [] and offered = ref [] in
    Engine.at eng ~time:1. (fun () -> log := "at" :: !log);
    Engine.schedule eng ~delay:1. (fun () -> log := "schedule" :: !log);
    Engine.set_tie_chooser eng (fun n ->
        offered := n :: !offered;
        pick);
    Engine.run eng;
    Alcotest.(check (list int)) "one choice among both" [ 2 ] !offered;
    List.rev !log
  in
  Alcotest.(check (list string)) "pick 0" [ "at"; "schedule" ] (order 0);
  Alcotest.(check (list string)) "pick 1" [ "schedule"; "at" ] (order 1)

let test_non_finite_delays () =
  let eng = Engine.create () in
  List.iter
    (fun d ->
      Alcotest.check_raises "schedule"
        (Invalid_argument "Engine.schedule: negative or non-finite delay")
        (fun () -> Engine.schedule eng ~delay:d ignore))
    [ nan; infinity; -1. ];
  let raised = ref [] in
  List.iter
    (fun d ->
      Engine.spawn eng ~name:"s" (fun () ->
          match Engine.sleep eng d with
          | () -> ()
          | exception Invalid_argument m -> raised := m :: !raised))
    [ nan; infinity; neg_infinity ];
  Engine.run eng;
  Alcotest.(check (list string)) "sleep"
    (List.init 3 (fun _ -> "Engine.sleep: negative or non-finite duration"))
    !raised;
  Alcotest.(check int) "nothing queued" 3 (Engine.events_dispatched eng)

let test_steps_match_fiber () =
  (* The same chain run three ways: as a step process, as a fiber, and
     through [run_steps] inside a fiber.  The event streams, the
     blocked reports mid-run and the clock must agree. *)
  let chain gate =
    Engine.Sleep
      ( 1.,
        fun () ->
          Engine.Wait
            ( Some "gate",
              (fun resume -> gate := Some resume),
              fun () ->
                Engine.Sleep (0., fun () -> Engine.Sleep (2., fun () -> Engine.Done))
            ) )
  in
  let world start =
    let eng = Engine.create () in
    let gate = ref None in
    start eng gate;
    Engine.spawn eng ~name:"opener" (fun () ->
        Engine.sleep eng 1.5;
        Option.get !gate ());
    let report () =
      List.map
        (fun b -> Format.asprintf "%d %a" b.Engine.b_pid Engine.pp_blocked b)
        (Engine.blocked_report eng)
    in
    Engine.run ~until:0.5 eng;
    let r1 = report () in
    Engine.run ~until:1.2 eng;
    let r2 = report () in
    Engine.run eng;
    (r1, r2, Engine.now eng, Engine.events_dispatched eng, Engine.fingerprint eng)
  in
  let steps =
    world (fun eng gate ->
        Engine.spawn_steps eng ~name:(Engine.proc_name "p") (fun () ->
            chain gate))
  in
  let fiber =
    world (fun eng gate ->
        Engine.spawn eng ~name:"p" (fun () ->
            Engine.sleep eng 1.;
            Engine.suspend ~ctx:"gate" eng (fun resume -> gate := Some resume);
            Engine.sleep eng 0.;
            Engine.sleep eng 2.))
  in
  let inline =
    world (fun eng gate ->
        Engine.spawn eng ~name:"p" (fun () -> Engine.run_steps eng (chain gate)))
  in
  let r1, r2, now, _, _ = steps in
  Alcotest.(check (list string)) "sleeping"
    [ "1 p blocked on sleep"; "2 opener blocked on sleep" ] r1;
  Alcotest.(check (list string)) "waiting"
    [ "1 p blocked on gate"; "2 opener blocked on sleep" ] r2;
  feq "finish" 3.5 now;
  let same = Alcotest.(check bool) in
  same "fiber == steps" true (fiber = steps);
  same "run_steps == steps" true (inline = steps)

let suite =
  let q = QCheck_alcotest.to_alcotest ~rand:(Fuzz.Seed.rand_state ()) in
  [
    ( "sim.engine",
      [
        Alcotest.test_case "clock and sleep" `Quick test_clock_and_sleep;
        Alcotest.test_case "deterministic ties" `Quick
          test_deterministic_tie_break;
        Alcotest.test_case "run until / resume" `Quick test_run_until;
        Alcotest.test_case "past until rejected" `Quick test_run_until_past;
        Alcotest.test_case "deadlock detection" `Quick test_deadlock_detection;
        Alcotest.test_case "deadlock report includes daemons" `Quick
          test_deadlock_reports_daemons;
        Alcotest.test_case "daemons exempt from deadlock" `Quick
          test_daemon_does_not_deadlock;
        Alcotest.test_case "polling daemon stops with work" `Quick
          test_daemon_polling_stops_with_work;
        Alcotest.test_case "nested spawn" `Quick test_nested_spawn;
        Alcotest.test_case "crash leaves engine consistent" `Quick
          test_crash_leaves_engine_consistent;
        Alcotest.test_case "crash in suspend register" `Quick
          test_crash_in_suspend_register;
        Alcotest.test_case "10k processes" `Quick test_many_processes_scale;
        Alcotest.test_case "blocked report mid-run" `Quick
          test_blocked_report_mid_run;
        Alcotest.test_case "blocked report lists sleeping daemons" `Quick
          test_blocked_report_sleeping_daemon;
        Alcotest.test_case "sleep context derived from the queue" `Quick
          test_sleep_context_derived;
        Alcotest.test_case "event stream pinned, PW convoy" `Quick
          test_pw_convoy_stream_pin;
        Alcotest.test_case "tie chooser sees lane arrivals" `Quick
          test_tie_chooser_sees_lane;
        Alcotest.test_case "non-finite delays rejected" `Quick
          test_non_finite_delays;
        Alcotest.test_case "step process == fiber process" `Quick
          test_steps_match_fiber;
        q prop_queue_order;
        q prop_queue_reference;
      ] );
    ( "sim.sync",
      [
        Alcotest.test_case "mailbox fifo" `Quick test_mailbox_fifo;
        Alcotest.test_case "mailbox waiter order" `Quick
          test_mailbox_many_waiters;
        Alcotest.test_case "ivar broadcast + double fill" `Quick test_ivar;
        Alcotest.test_case "semaphore as mutex" `Quick test_semaphore_mutex;
        Alcotest.test_case "semaphore counting" `Quick test_semaphore_counting;
        Alcotest.test_case "resource fifo rate" `Quick test_resource_fifo_rate;
        Alcotest.test_case "resource idle gap" `Quick test_resource_idle_gap;
        Alcotest.test_case "condition wait_until" `Quick test_condition;
      ] );
  ]
