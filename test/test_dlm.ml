(* Tests for the lock manager core: modes, the Table II LCM, and
   end-to-end lock-server/lock-client protocol scenarios. *)

open Ccpfs_util
open Dessim
open Seqdlm

let iv lo hi = Interval.v ~lo ~hi
let granted_list h = (Lock_client.granted_ranges h :> Interval.t list)

(* ------------------------------------------------------------------ *)
(* Mode                                                                *)
(* ------------------------------------------------------------------ *)

let all_modes = [ Mode.PR; Mode.NBW; Mode.BW; Mode.PW ]

let mode = Alcotest.testable Mode.pp Mode.equal

let test_mode_capabilities () =
  Alcotest.(check bool) "PR reads" true (Mode.can_read Mode.PR);
  Alcotest.(check bool) "PR no write" false (Mode.can_write Mode.PR);
  Alcotest.(check bool) "NBW writes only" true
    (Mode.can_write Mode.NBW && not (Mode.can_read Mode.NBW));
  Alcotest.(check bool) "BW writes only" true
    (Mode.can_write Mode.BW && not (Mode.can_read Mode.BW));
  Alcotest.(check bool) "PW both" true
    (Mode.can_read Mode.PW && Mode.can_write Mode.PW)

let test_mode_join_table () =
  Alcotest.check mode "PR+NBW=PW" Mode.PW (Mode.join Mode.PR Mode.NBW);
  Alcotest.check mode "PR+BW=PW" Mode.PW (Mode.join Mode.PR Mode.BW);
  Alcotest.check mode "NBW+BW=BW" Mode.BW (Mode.join Mode.NBW Mode.BW);
  Alcotest.check mode "NBW+NBW=NBW" Mode.NBW (Mode.join Mode.NBW Mode.NBW);
  Alcotest.check mode "PR+PR=PR" Mode.PR (Mode.join Mode.PR Mode.PR);
  List.iter
    (fun m -> Alcotest.check mode "PW absorbs" Mode.PW (Mode.join m Mode.PW))
    all_modes

let prop_join_lattice =
  let open QCheck in
  let gen_mode = Gen.oneofl all_modes in
  Test.make ~name:"join is a commutative idempotent upper bound" ~count:200
    (make
       ~print:(fun (a, b) -> Mode.to_string a ^ "," ^ Mode.to_string b)
       Gen.(pair gen_mode gen_mode))
    (fun (a, b) ->
      let j = Mode.join a b in
      Mode.equal j (Mode.join b a)
      && Mode.equal (Mode.join a a) a
      (* the join grants every capability of both arguments *)
      && (not (Mode.can_read a) || Mode.can_read j)
      && (not (Mode.can_write a) || Mode.can_write j)
      && (not (Mode.can_read b) || Mode.can_read j)
      && (not (Mode.can_write b) || Mode.can_write j)
      && Mode.severity j >= Mode.severity a
      && Mode.severity j >= Mode.severity b)

let test_mode_subsumes () =
  (* A cached lock serves an operation iff it grants every capability the
     selected mode needs, per the usable-mode table. *)
  let expect = function
    | Mode.PR, (Mode.PR | Mode.PW) -> true
    | Mode.NBW, (Mode.NBW | Mode.BW | Mode.PW) -> true
    | Mode.BW, (Mode.BW | Mode.PW) -> true
    | Mode.PW, Mode.PW -> true
    | _ -> false
  in
  List.iter
    (fun wanted ->
      List.iter
        (fun cached ->
          Alcotest.(check bool)
            (Printf.sprintf "cached %s serves %s" (Mode.to_string cached)
               (Mode.to_string wanted))
            (expect (wanted, cached))
            (Mode.subsumes ~cached ~wanted))
        all_modes)
    all_modes

(* ------------------------------------------------------------------ *)
(* LCM — exact Table II                                                *)
(* ------------------------------------------------------------------ *)

let test_lcm_table2 () =
  let expect req granted state =
    match (req, granted, state) with
    | Mode.PR, Mode.PR, _ -> true
    | (Mode.NBW | Mode.BW), Mode.NBW, Lcm.Canceling -> true
    | _ -> false
  in
  List.iter
    (fun req ->
      List.iter
        (fun granted ->
          List.iter
            (fun state ->
              Alcotest.(check bool)
                (Printf.sprintf "%s vs %s(%s)" (Mode.to_string req)
                   (Mode.to_string granted)
                   (Lcm.state_to_string state))
                (expect req granted state)
                (Lcm.compatible ~req ~granted ~state))
            [ Lcm.Granted; Lcm.Canceling ])
        all_modes)
    all_modes

let test_lcm_pw_blocks_everything () =
  List.iter
    (fun req ->
      List.iter
        (fun state ->
          Alcotest.(check bool) "PW column all N" false
            (Lcm.compatible ~req ~granted:Mode.PW ~state);
          Alcotest.(check bool) "PW row all N" false
            (Lcm.compatible ~req:Mode.PW ~granted:req ~state))
        [ Lcm.Granted; Lcm.Canceling ])
    all_modes

let test_lcm_golden_table () =
  (* The complete list of Y cells of Table II, pinned as data: any change
     to the matrix must edit this list consciously. *)
  let y_cells =
    [
      (Mode.PR, Mode.PR, Lcm.Granted); (Mode.PR, Mode.PR, Lcm.Canceling);
      (Mode.NBW, Mode.NBW, Lcm.Canceling); (Mode.BW, Mode.NBW, Lcm.Canceling);
    ]
  in
  List.iter
    (fun req ->
      List.iter
        (fun granted ->
          List.iter
            (fun state ->
              Alcotest.(check bool)
                (Printf.sprintf "golden %s vs %s(%s)" (Mode.to_string req)
                   (Mode.to_string granted)
                   (Lcm.state_to_string state))
                (List.mem (req, granted, state) y_cells)
                (Lcm.compatible ~req ~granted ~state))
            [ Lcm.Granted; Lcm.Canceling ])
        all_modes)
    all_modes;
  (* Early grant is asymmetric: a BW request passes over a CANCELING NBW
     grant, but an NBW request never passes over a CANCELING BW grant —
     only the non-blocking mode loses its protection when revoked. *)
  Alcotest.(check bool) "BW over canceling NBW" true
    (Lcm.compatible ~req:Mode.BW ~granted:Mode.NBW ~state:Lcm.Canceling);
  Alcotest.(check bool) "NBW over canceling BW" false
    (Lcm.compatible ~req:Mode.NBW ~granted:Mode.BW ~state:Lcm.Canceling);
  (* And the sanitizer's independently transcribed table agrees cell by
     cell with the production matrix. *)
  Check.Lcm_oracle.cross_check ()

(* ------------------------------------------------------------------ *)
(* Protocol scenarios                                                  *)
(* ------------------------------------------------------------------ *)

(* Time constants chosen so phases are easy to tell apart: RTT 1 ms,
   1 ms of server service per RPC, negligible payload cost. *)
let params =
  {
    Netsim.Params.rtt = 1e-3;
    b_net = 1e12;
    server_ops = 1000.;
    b_disk = 1e12;
    b_mem = 1e12;
    ctl_msg_bytes = 0;
    bulk_threshold = 16 * 1024;
    client_io_overhead = 0.;
  }

type world = {
  eng : Engine.t;
  server : Lock_server.t;
  clients : Lock_client.t array;
  flush_time : float ref;
  flush_log : (int * float * float) list ref; (* client, start, end *)
  dirty : bool ref;
}

let make_world ?(n = 4) ?(policy = Policy.seqdlm) () =
  let eng = Engine.create () in
  let snode = Netsim.Node.create eng params ~name:"server" () in
  let server = Lock_server.create eng params ~node:snode ~name:"ls" ~policy in
  let flush_time = ref 0.1 in
  let flush_log = ref [] in
  let dirty = ref true in
  let clients =
    Array.init n (fun i ->
        let node = Netsim.Node.create eng params ~name:(Printf.sprintf "c%d" i) () in
        let hooks =
          {
            Lock_client.flush =
              (fun ~rid:_ ~ranges:_ ->
                let t0 = Engine.now eng in
                Engine.sleep eng !flush_time;
                flush_log := (i, t0, Engine.now eng) :: !flush_log);
            has_dirty = (fun ~rid:_ ~ranges:_ -> !dirty);
            invalidate = (fun ~rid:_ ~ranges:_ -> ());
          }
        in
        Lock_client.create eng params ~node ~client_id:i
          ~route:(fun _ -> server)
          ~hooks)
  in
  { eng; server; clients; flush_time; flush_log; dirty }

let spawn w name f = Engine.spawn w.eng ~name f
let run w = Engine.run w.eng

let test_grant_and_expansion () =
  let w = make_world () in
  let got = ref None in
  spawn w "c0" (fun () ->
      let h =
        Lock_client.acquire w.clients.(0) ~rid:1 ~mode:Mode.NBW
          ~ranges:(Ranges.single (iv 4096 8192))
      in
      got :=
        Some
          (granted_list h, Lock_client.sn h);
      Lock_client.release w.clients.(0) h);
  run w;
  (match !got with
  | Some ([ r ], sn) ->
      Alcotest.(check int) "lo kept" 4096 r.Interval.lo;
      Alcotest.(check int) "end expanded to EOF" Interval.eof r.Interval.hi;
      Alcotest.(check int) "first write SN" 1 sn
  | _ -> Alcotest.fail "expected one expanded range");
  Alcotest.(check int) "one grant" 1 (Lock_server.stats w.server).grants;
  Lock_server.check_invariants w.server

let test_cache_reuse () =
  let w = make_world () in
  spawn w "c0" (fun () ->
      let c = w.clients.(0) in
      Lock_client.with_lock c ~rid:1 ~mode:Mode.NBW
        ~ranges:(Ranges.single (iv 0 4096))
        (fun _ -> ());
      Lock_client.with_lock c ~rid:1 ~mode:Mode.NBW
        ~ranges:(Ranges.single (iv 8192 12288))
        (fun _ -> ()));
  run w;
  Alcotest.(check int) "one server grant" 1 (Lock_server.stats w.server).grants;
  Alcotest.(check int) "one cache hit" 1 (Lock_client.cache_hits w.clients.(0));
  Alcotest.(check int) "lock stays cached" 1
    (Lock_client.cached_locks w.clients.(0))

let test_pw_conflict_waits_for_flush () =
  (* Traditional (normal grant): the second client's grant waits for
     revocation + data flushing + release of the first. *)
  let w = make_world ~policy:Policy.dlm_basic () in
  w.flush_time := 0.5;
  let t_grant1 = ref 0. and t_grant0 = ref 0. in
  spawn w "c0" (fun () ->
      Lock_client.with_lock w.clients.(0) ~rid:1 ~mode:Mode.PW
        ~ranges:(Ranges.single (iv 0 4096))
        (fun _ -> t_grant0 := Engine.now w.eng));
  spawn w "c1" (fun () ->
      Engine.sleep w.eng 0.01;
      Lock_client.with_lock w.clients.(1) ~rid:1 ~mode:Mode.PW
        ~ranges:(Ranges.single (iv 0 4096))
        (fun _ -> t_grant1 := Engine.now w.eng));
  run w;
  (match !(w.flush_log) with
  | [ (0, fstart, fend) ] ->
      Alcotest.(check bool) "flush happened" true (fstart > !t_grant0);
      Alcotest.(check bool) "grant 1 after flush end" true (!t_grant1 > fend)
  | l -> Alcotest.fail (Printf.sprintf "expected one flush, got %d" (List.length l)));
  Alcotest.(check int) "one revocation" 1 (Lock_server.stats w.server).revokes_sent;
  Alcotest.(check int) "no early grant" 0 (Lock_server.stats w.server).early_grants

let test_early_grant_overlaps_flush () =
  (* SeqDLM NBW: the second grant arrives while the first holder's data
     flushing is still in flight (Fig. 6, right). *)
  let w = make_world () in
  w.flush_time := 0.5;
  let t_grant1 = ref 0. in
  spawn w "c0" (fun () ->
      Lock_client.with_lock w.clients.(0) ~rid:1 ~mode:Mode.NBW
        ~ranges:(Ranges.single (iv 0 4096))
        (fun _ -> ()));
  spawn w "c1" (fun () ->
      Engine.sleep w.eng 0.01;
      Lock_client.with_lock w.clients.(1) ~rid:1 ~mode:Mode.NBW
        ~ranges:(Ranges.single (iv 0 4096))
        (fun h ->
          t_grant1 := Engine.now w.eng;
          Alcotest.(check int) "second write SN" 2 (Lock_client.sn h)));
  run w;
  (match List.rev !(w.flush_log) with
  | (0, fstart, fend) :: _ ->
      Alcotest.(check bool) "grant before flush completed" true
        (!t_grant1 < fend);
      Alcotest.(check bool) "but after flush started" true (!t_grant1 > fstart -. 1e-9)
  | _ -> Alcotest.fail "expected c0's flush first");
  Alcotest.(check bool) "early grant counted" true
    ((Lock_server.stats w.server).early_grants >= 1);
  Lock_server.check_invariants w.server

let test_early_revocation_piggyback () =
  (* Simultaneous conflicting requests: with ER the server tags grants
     CANCELING instead of sending revocation callbacks. *)
  let run_with policy =
    let w = make_world ~policy () in
    w.flush_time := 0.01;
    for i = 0 to 3 do
      spawn w (Printf.sprintf "c%d" i) (fun () ->
          Lock_client.with_lock w.clients.(i) ~rid:1 ~mode:Mode.NBW
            ~ranges:(Ranges.single (Interval.to_eof ~lo:0))
            (fun _ -> ()))
    done;
    run w;
    Lock_server.stats w.server
  in
  let er = run_with Policy.seqdlm in
  let no_er = run_with (Policy.without_early_revocation Policy.seqdlm) in
  (* The very first request is granted before any conflict is queued, so
     it still needs one classic revocation; every later grant sees the
     queue and is tagged CANCELING instead. *)
  Alcotest.(check bool) "ER piggybacked" true (er.early_revocations >= 2);
  Alcotest.(check bool) "ER avoids callbacks" true (er.revokes_sent <= 1);
  Alcotest.(check int) "no piggyback without ER" 0 no_er.early_revocations;
  Alcotest.(check bool) "callbacks without ER" true (no_er.revokes_sent >= 3)

let test_sequencer_monotonic () =
  let w = make_world ~n:8 () in
  w.flush_time := 0.001;
  let sns = ref [] in
  for i = 0 to 7 do
    spawn w (Printf.sprintf "c%d" i) (fun () ->
        for _ = 1 to 5 do
          Lock_client.with_lock w.clients.(i) ~rid:1 ~mode:Mode.NBW
            ~ranges:(Ranges.single (Interval.to_eof ~lo:0))
            (fun h -> sns := Lock_client.sn h :: !sns)
        done)
  done;
  run w;
  let sns = List.rev !sns in
  Alcotest.(check bool) "SNs positive" true (List.for_all (fun s -> s >= 1) sns);
  (* Cache hits legitimately reuse an SN, but the server's counter must
     dominate everything handed out and each *grant* got a fresh SN. *)
  let stats = Lock_server.stats w.server in
  let max_sn = List.fold_left max 0 sns in
  Alcotest.(check bool) "server SN counter dominates" true
    (Lock_server.next_sn w.server 1 > max_sn);
  Alcotest.(check int) "one SN per grant" (stats.grants + 1)
    (Lock_server.next_sn w.server 1);
  Lock_server.check_invariants w.server

let test_expansion_bounded_by_waiter () =
  (* A queued conflicting request above the grant bounds expansion: the
     N-1 segmented case where each client ends up owning its segment.
     c2 holds a whole-file lock so that c0's and c1's requests are both
     queued when the grants are finally processed. *)
  let w = make_world () in
  w.flush_time := 0.05;
  let r0 = ref [] and r1 = ref [] in
  spawn w "c2" (fun () ->
      Lock_client.with_lock w.clients.(2) ~rid:1 ~mode:Mode.NBW
        ~ranges:(Ranges.single (Interval.to_eof ~lo:0))
        (fun _ -> ()));
  spawn w "c0" (fun () ->
      Engine.sleep w.eng 0.01;
      Lock_client.with_lock w.clients.(0) ~rid:1 ~mode:Mode.NBW
        ~ranges:(Ranges.single (iv 0 4096))
        (fun h -> r0 := granted_list h));
  spawn w "c1" (fun () ->
      Engine.sleep w.eng 0.012;
      Lock_client.with_lock w.clients.(1) ~rid:1 ~mode:Mode.NBW
        ~ranges:(Ranges.single (iv 1_048_576 1_052_672))
        (fun _ -> ()));
  run w;
  (match !r0 with
  | [ r ] ->
      Alcotest.(check int) "expansion stops at waiter" 1_048_576 r.Interval.hi
  | _ -> Alcotest.fail "expected a single range");
  ignore r1;
  Lock_server.check_invariants w.server

let test_lustre_cap_after_threshold () =
  let w = make_world ~policy:Policy.dlm_lustre () in
  w.flush_time := 0.0;
  let last_range = ref None in
  spawn w "c0" (fun () ->
      let c = w.clients.(0) in
      (* Burn through the grant threshold on rid 1 with releases forced by
         a conflicting partner. *)
      for k = 0 to 39 do
        let lo = k * 8192 in
        let h =
          Lock_client.acquire c ~rid:1 ~mode:Mode.PW
            ~ranges:(Ranges.single (iv lo (lo + 4096)))
        in
        last_range := Some (granted_list h);
        Lock_client.release c h;
        (* Partner forces the cached lock away so each iteration issues a
           fresh request. *)
        Lock_client.with_lock w.clients.(1) ~rid:1 ~mode:Mode.PW
          ~ranges:(Ranges.single (iv lo (lo + 4096)))
          (fun _ -> ())
      done);
  run w;
  (match !last_range with
  | Some [ r ] ->
      let len = r.Interval.hi - r.Interval.lo in
      Alcotest.(check bool)
        (Printf.sprintf "capped to <= 32MiB + request (got %d)" len)
        true
        (len <= (32 * 1024 * 1024) + 4096)
  | _ -> Alcotest.fail "expected a granted range");
  Lock_server.check_invariants w.server

let test_datatype_exact_ranges () =
  let w = make_world ~policy:Policy.dlm_datatype () in
  let got = ref [] in
  (* Interleaved non-contiguous writes from two clients, disjoint: both
     must hold grants concurrently. *)
  let concurrent = ref 0 and max_concurrent = ref 0 in
  let ranges_of i =
    List.init 4 (fun k -> iv ((k * 8192) + (i * 4096)) ((k * 8192) + (i * 4096) + 4096))
  in
  for i = 0 to 1 do
    spawn w (Printf.sprintf "c%d" i) (fun () ->
        Lock_client.with_lock w.clients.(i) ~rid:1 ~mode:Mode.PW
          ~ranges:(Ranges.of_list (ranges_of i))
          (fun h ->
            incr concurrent;
            if !concurrent > !max_concurrent then max_concurrent := !concurrent;
            got := (i, granted_list h) :: !got;
            Engine.sleep w.eng 0.1;
            decr concurrent))
  done;
  run w;
  Alcotest.(check int) "disjoint datatype locks run concurrently" 2
    !max_concurrent;
  List.iter
    (fun (i, ranges) ->
      Alcotest.(check int) "no expansion: 4 ranges" 4 (List.length ranges);
      Alcotest.(check bool) "exact ranges" true
        (List.for_all2 Interval.equal ranges (ranges_of i)))
    !got;
  Alcotest.(check int) "no revocations" 0 (Lock_server.stats w.server).revokes_sent

let test_upgrade_same_client () =
  (* Fig. 11: a PR request conflicting with the client's own NBW lock is
     upgraded to PW and merged — no revocation round-trip. *)
  let w = make_world () in
  let final_mode = ref Mode.PR in
  spawn w "c0" (fun () ->
      let c = w.clients.(0) in
      Lock_client.with_lock c ~rid:1 ~mode:Mode.NBW
        ~ranges:(Ranges.single (iv 0 4096))
        (fun _ -> ());
      Lock_client.with_lock c ~rid:1 ~mode:Mode.PR
        ~ranges:(Ranges.single (iv 0 4096))
        (fun h -> final_mode := Lock_client.mode h);
      (* Both reads and writes now reuse the merged PW lock. *)
      Lock_client.with_lock c ~rid:1 ~mode:Mode.NBW
        ~ranges:(Ranges.single (iv 0 4096))
        (fun _ -> ());
      Lock_client.with_lock c ~rid:1 ~mode:Mode.PR
        ~ranges:(Ranges.single (iv 4096 8192))
        (fun _ -> ()));
  run w;
  Alcotest.check mode "upgraded to PW" Mode.PW !final_mode;
  let s = Lock_server.stats w.server in
  Alcotest.(check int) "no revocations" 0 s.revokes_sent;
  Alcotest.(check int) "one upgrade" 1 s.upgrades;
  Alcotest.(check int) "two server grants total" 2 s.grants;
  Alcotest.(check int) "single cached lock after merge" 1
    (Lock_client.cached_locks w.clients.(0));
  Lock_server.check_invariants w.server

let test_no_upgrade_without_conversion () =
  (* Same sequence with conversion disabled (Fig. 11(a)): the client's
     own cached NBW lock must be revoked — flush + release — before the
     PR grant, because NBW cannot serve the read. *)
  let w = make_world ~policy:(Policy.without_conversion Policy.seqdlm) () in
  spawn w "c0" (fun () ->
      let c = w.clients.(0) in
      Lock_client.with_lock c ~rid:1 ~mode:Mode.NBW
        ~ranges:(Ranges.single (iv 0 4096))
        (fun _ -> ());
      Lock_client.with_lock c ~rid:1 ~mode:Mode.PR
        ~ranges:(Ranges.single (iv 0 4096))
        (fun _ -> ()));
  run w;
  let s = Lock_server.stats w.server in
  Alcotest.(check int) "own lock revoked" 1 s.revokes_sent;
  Alcotest.(check int) "no upgrades" 0 s.upgrades;
  Alcotest.(check int) "flushed own dirty data" 1 (List.length !(w.flush_log))

let test_downgrade_bw_to_nbw () =
  (* Fig. 12: with conversion, a BW lock being cancelled downgrades to
     NBW first, so the conflicting BW request is granted while the flush
     is still running. *)
  let run_with policy =
    let w = make_world ~policy () in
    w.flush_time := 0.5;
    let t_grant1 = ref 0. in
    spawn w "c0" (fun () ->
        Lock_client.with_lock w.clients.(0) ~rid:1 ~mode:Mode.BW
          ~ranges:(Ranges.single (iv 0 4096))
          (fun _ -> ()));
    spawn w "c1" (fun () ->
        Engine.sleep w.eng 0.01;
        Lock_client.with_lock w.clients.(1) ~rid:1 ~mode:Mode.BW
          ~ranges:(Ranges.single (iv 0 4096))
          (fun _ -> t_grant1 := Engine.now w.eng));
    run w;
    let fend =
      match List.rev !(w.flush_log) with
      | (0, _, fend) :: _ -> fend
      | _ -> Alcotest.fail "expected c0's flush first"
    in
    (!t_grant1, fend, Lock_server.stats w.server)
  in
  let t1, fend, s = run_with Policy.seqdlm in
  Alcotest.(check bool) "granted during flush" true (t1 < fend);
  Alcotest.(check int) "one downgrade" 1 s.downgrades;
  let t1', fend', s' = run_with (Policy.without_conversion Policy.seqdlm) in
  Alcotest.(check bool) "without conversion waits for flush" true (t1' > fend');
  Alcotest.(check int) "no downgrades" 0 s'.downgrades

let test_upgrade_reclaims_other_readers () =
  (* §III-D1: upgrading to PW while other clients cache conflicting PR
     locks first reclaims those PR locks — all except the requester's. *)
  let w = make_world () in
  w.dirty := false;
  let got_mode = ref Mode.PR in
  (* Clients 1 and 2 cache PR locks. *)
  for i = 1 to 2 do
    spawn w (Printf.sprintf "r%d" i) (fun () ->
        Lock_client.with_lock w.clients.(i) ~rid:1 ~mode:Mode.PR
          ~ranges:(Ranges.single (iv 0 4096))
          (fun _ -> ()))
  done;
  (* Client 0 reads, then writes: its PR lock upgrades to PW, which
     requires revoking the other readers but NOT client 0's own PR. *)
  spawn w "c0" (fun () ->
      Engine.sleep w.eng 0.05;
      let c = w.clients.(0) in
      Lock_client.with_lock c ~rid:1 ~mode:Mode.PR
        ~ranges:(Ranges.single (iv 0 4096))
        (fun _ -> ());
      Lock_client.with_lock c ~rid:1 ~mode:Mode.NBW
        ~ranges:(Ranges.single (iv 0 4096))
        (fun h -> got_mode := Lock_client.mode h));
  run w;
  Alcotest.check mode "merged own PR into PW" Mode.PW !got_mode;
  let s = Lock_server.stats w.server in
  Alcotest.(check int) "revoked exactly the other two readers" 2 s.revokes_sent;
  Alcotest.(check int) "one cached lock left on c0" 1
    (Lock_client.cached_locks w.clients.(0));
  Lock_server.check_invariants w.server

let test_upgrade_nbw_plus_bw () =
  (* Fig. 9's middle edge: a BW request over the client's own NBW lock
     joins at BW (not PW — no read capability was requested). *)
  let w = make_world () in
  let got_mode = ref Mode.PR in
  spawn w "c0" (fun () ->
      let c = w.clients.(0) in
      Lock_client.with_lock c ~rid:1 ~mode:Mode.NBW
        ~ranges:(Ranges.single (iv 0 4096))
        (fun _ -> ());
      Lock_client.with_lock c ~rid:1 ~mode:Mode.BW
        ~ranges:(Ranges.single (iv 0 4096))
        (fun h -> got_mode := Lock_client.mode h));
  run w;
  Alcotest.check mode "NBW+BW joins at BW" Mode.BW !got_mode;
  Alcotest.(check int) "no revocations" 0 (Lock_server.stats w.server).revokes_sent

let test_early_revoked_grant_cancels_after_use () =
  (* A grant carrying the CANCELING state is used once and then cancels
     itself — no callback ever needed. *)
  let w = make_world () in
  w.flush_time := 0.01;
  for i = 0 to 2 do
    spawn w (Printf.sprintf "c%d" i) (fun () ->
        Lock_client.with_lock w.clients.(i) ~rid:1 ~mode:Mode.NBW
          ~ranges:(Ranges.single (Interval.to_eof ~lo:0))
          (fun _ -> Engine.sleep w.eng 0.001))
  done;
  run w;
  let s = Lock_server.stats w.server in
  (* Every CANCELING grant self-cancels after its single use; only the
     final grant — nothing queued behind it — stays cached. *)
  Alcotest.(check int) "all but the last grant released" (s.grants - 1)
    s.releases;
  let remaining = Lock_server.granted_locks w.server 1 in
  Alcotest.(check int) "one lock left on the server" 1 (List.length remaining);
  (match remaining with
  | [ v ] ->
      Alcotest.(check bool) "and it is GRANTED" true (v.state = Lcm.Granted)
  | _ -> Alcotest.fail "expected one lock");
  let cached_total =
    List.fold_left
      (fun acc i -> acc + Lock_client.cached_locks w.clients.(i))
      0 [ 0; 1; 2 ]
  in
  Alcotest.(check int) "exactly one client still caches it" 1 cached_total

let test_downgrade_pw_to_pr_when_clean () =
  (* A PW lock with no dirty data downgrades to PR on cancel, letting a
     pending reader in before the release round-trip. *)
  let w = make_world () in
  w.dirty := false;
  spawn w "c0" (fun () ->
      Lock_client.with_lock w.clients.(0) ~rid:1 ~mode:Mode.PW
        ~ranges:(Ranges.single (iv 0 4096))
        (fun _ -> ()));
  spawn w "c1" (fun () ->
      Engine.sleep w.eng 0.01;
      Lock_client.with_lock w.clients.(1) ~rid:1 ~mode:Mode.PR
        ~ranges:(Ranges.single (iv 0 4096))
        (fun _ -> ()));
  run w;
  let s = Lock_server.stats w.server in
  Alcotest.(check int) "downgraded" 1 s.downgrades;
  Alcotest.(check int) "no flush for clean PW" 0 (List.length !(w.flush_log));
  Lock_server.check_invariants w.server

let test_min_unreleased_write_sn () =
  let w = make_world () in
  w.flush_time := 0.2;
  spawn w "c0" (fun () ->
      Lock_client.with_lock w.clients.(0) ~rid:7 ~mode:Mode.NBW
        ~ranges:(Ranges.single (iv 0 4096))
        (fun _ ->
          Alcotest.(check (option int))
            "one unreleased write lock" (Some 1)
            (Lock_server.min_unreleased_write_sn w.server 7 (iv 0 1_000_000))));
  run w;
  (* Still cached (never revoked) => still unreleased. *)
  Alcotest.(check (option int))
    "cached lock still unreleased" (Some 1)
    (Lock_server.min_unreleased_write_sn w.server 7 (iv 0 4096));
  Alcotest.(check (option int))
    "unknown resource has none" None
    (Lock_server.min_unreleased_write_sn w.server 999 (iv 0 4096))

let test_min_unreleased_none_after_release () =
  let w = make_world () in
  spawn w "c0" (fun () ->
      Lock_client.with_lock w.clients.(0) ~rid:7 ~mode:Mode.NBW
        ~ranges:(Ranges.single (iv 0 4096))
        (fun _ -> ()));
  spawn w "c1" (fun () ->
      Engine.sleep w.eng 0.05;
      Lock_client.with_lock w.clients.(1) ~rid:7 ~mode:Mode.NBW
        ~ranges:(Ranges.single (iv 0 4096))
        (fun _ -> ()));
  run w;
  (* c0's lock was revoked and released; c1's is still cached. *)
  match Lock_server.min_unreleased_write_sn w.server 7 (iv 0 4096) with
  | Some sn2 -> Alcotest.(check int) "only the newer lock remains" 2 sn2
  | None -> Alcotest.fail "expected c1's lock to be unreleased"

let test_sync_resource () =
  let w = make_world () in
  w.flush_time := 0.3;
  let synced_at = ref 0. in
  spawn w "c0" (fun () ->
      Lock_client.with_lock w.clients.(0) ~rid:3 ~mode:Mode.NBW
        ~ranges:(Ranges.single (iv 0 4096))
        (fun _ -> ()));
  spawn w "syncer" (fun () ->
      Engine.sleep w.eng 0.05;
      let done_ = Ivar.create w.eng in
      Lock_server.sync_resource w.server 3 ~on_behalf:(-1) ~reply:(fun () ->
          Ivar.fill done_ ());
      Ivar.read done_;
      synced_at := Engine.now w.eng);
  run w;
  (* The sync completes only after c0's flush (0.3 s) and release. *)
  (match List.rev !(w.flush_log) with
  | (0, _, fend) :: _ ->
      Alcotest.(check bool) "sync after flush" true (!synced_at >= fend)
  | _ -> Alcotest.fail "expected c0's flush first");
  Alcotest.(check int) "pseudo-lock dropped" 0
    (List.length (Lock_server.granted_locks w.server 3))

(* A lock that turns CANCELING NBW other than by a revoke ack must still
   be seen by every query: early grant over it, conflict with it,
   expansion bounded by it.  Two ways in: a CANCELING BW lock downgraded
   to NBW, and a CANCELING NBW lock reinstalled (the recovery and
   [adopt] path).  Each check runs against a fresh server holding only
   that lock, with the invariants (which include the grant-tree
   partition) checked after every step. *)
let test_canceling_nbw_from_downgrade_and_reinstall () =
  let rid = 1 and lo = 1 lsl 20 in
  let under_test how =
    let eng = Engine.create () in
    let node = Netsim.Node.create eng params ~name:"srv" () in
    let s =
      Lock_server.create eng params ~node ~name:"ls" ~policy:Policy.seqdlm
    in
    for cid = 0 to 1 do
      let cn =
        Netsim.Node.create eng params ~name:(Printf.sprintf "c%d" cid) ()
      in
      Lock_server.register_client s cid
        (Netsim.Rpc.endpoint eng params ~node:cn
           ~name:(Printf.sprintf "c%d.cb" cid)
           ~handler:(fun _ ~reply -> reply ()))
    done;
    (match how with
    | `Downgrade ->
        let id = ref 0 in
        Lock_server.submit s
          { Types.client = 0; rid; mode = Mode.BW;
            ranges = Ranges.single (iv lo (lo + 4096)) }
          ~on_grant:(fun g -> id := g.Types.lock_id);
        Lock_server.check_invariants s;
        Lock_server.control s (Types.Revoke_ack { rid; lock_id = !id });
        Lock_server.check_invariants s;
        Lock_server.control s
          (Types.Downgrade { rid; lock_id = !id; mode = Mode.NBW })
    | `Reinstall ->
        Lock_server.reinstall s
          [
            {
              Types.rid;
              lock_id = 1;
              client = 0;
              mode = Mode.NBW;
              ranges = Ranges.single (iv lo (lo + 4096));
              sn = 1;
              state = Lcm.Canceling;
            };
          ]);
    Lock_server.check_invariants s;
    (match Lock_server.granted_locks s rid with
    | [ v ] ->
        Alcotest.check mode "held in NBW" Mode.NBW v.mode;
        Alcotest.(check bool) "held CANCELING" true (v.state = Lcm.Canceling)
    | l -> Alcotest.failf "expected one lock, got %d" (List.length l));
    s
  in
  let request s mode ranges =
    let got = ref None in
    Lock_server.submit s
      { Types.client = 1; rid; mode; ranges = Ranges.of_list ranges }
      ~on_grant:(fun g -> got := Some g);
    Lock_server.check_invariants s;
    !got
  in
  List.iter
    (fun (how, name) ->
      let s = under_test how in
      (match request s Mode.NBW [ iv (lo + 1024) (lo + 2048) ] with
      | Some _ ->
          Alcotest.(check int) (name ^ ": NBW granted early") 1
            (Lock_server.stats s).early_grants
      | None -> Alcotest.failf "%s: overlapping NBW request waits" name);
      let s = under_test how in
      Alcotest.(check bool) (name ^ ": overlapping PR waits") true
        (Option.is_none (request s Mode.PR [ iv (lo + 1024) (lo + 2048) ]));
      Alcotest.(check int) (name ^ ": PR queued") 1
        (Lock_server.queue_length s rid);
      let s = under_test how in
      match
        Option.map
          (fun (g : Types.grant) -> (g.ranges :> Interval.t list))
          (request s Mode.PR [ iv 0 4096 ])
      with
      | Some [ r ] ->
          Alcotest.(check (pair int int))
            (name ^ ": PR below expands up to the lock")
            (0, lo) (r.Interval.lo, r.Interval.hi)
      | _ -> Alcotest.failf "%s: PR below the lock not granted whole" name)
    [ (`Downgrade, "downgraded BW"); (`Reinstall, "reinstalled NBW") ]

(* The early label means a grant over a CANCELING NBW lock (Table II's
   early-grant cells).  A PR grant over a CANCELING PR lock overlaps a
   CANCELING lock too, but that pair is compatible in both states, so it
   is a normal grant: traced [`Normal] and not counted. *)
let test_early_label_only_over_canceling_nbw () =
  let rid = 1 in
  let label held_mode req_mode =
    let eng = Engine.create () in
    let node = Netsim.Node.create eng params ~name:"srv" () in
    let s =
      Lock_server.create eng params ~node ~name:"ls" ~policy:Policy.seqdlm
    in
    Lock_server.reinstall s
      [
        { Types.rid; lock_id = 1; client = 0; mode = held_mode;
          ranges = Ranges.single (iv 0 8192); sn = 1; state = Lcm.Canceling };
      ];
    let traced = ref [] in
    Lock_server.add_tracer s (fun _ ev ->
        match ev with
        | Lock_server.T_grant (_, early) -> traced := early :: !traced
        | _ -> ());
    Lock_server.submit s
      { Types.client = 1; rid; mode = req_mode;
        ranges = Ranges.single (iv 4096 8192) }
      ~on_grant:(fun _ -> ());
    Lock_server.check_invariants s;
    (!traced, (Lock_server.stats s).early_grants)
  in
  let name = function `Normal -> "Normal" | `Early -> "Early" in
  let check what (want, want_n) (got, got_n) =
    Alcotest.(check (list string)) (what ^ ": traced") [ name want ]
      (List.map name got);
    Alcotest.(check int) (what ^ ": early_grants") want_n got_n
  in
  check "PR over CANCELING PR" (`Normal, 0) (label Mode.PR Mode.PR);
  check "NBW over CANCELING NBW" (`Early, 1) (label Mode.NBW Mode.NBW);
  check "BW over CANCELING NBW" (`Early, 1) (label Mode.NBW Mode.BW)

(* Randomised stress: clients issue random-mode random-range locks; the
   run must terminate (no deadlock), keep server invariants, and leave
   the queue empty. *)
let prop_random_protocol =
  let open QCheck in
  let scenario =
    Gen.(
      list_size (int_range 5 40)
        (triple (int_bound 3) (oneofl all_modes) (pair (int_bound 15) (int_range 1 8))))
  in
  let print_step (c, m, (blk, len)) =
    Printf.sprintf "c%d:%s@[%d,+%d)" c (Mode.to_string m) blk len
  in
  Test.make ~name:"random lock traffic: live, fair, invariant-preserving"
    ~count:60
    (make ~print:Print.(list print_step) scenario)
    (fun steps ->
      let w = make_world ~n:4 () in
      w.flush_time := 0.003;
      let completed = ref 0 in
      List.iteri
        (fun idx (c, m, (blk, len)) ->
          spawn w
            (Printf.sprintf "op%d" idx)
            (fun () ->
              Engine.sleep w.eng (float_of_int idx *. 1e-4);
              let lo = blk * 4096 in
              let ranges = Ranges.single (iv lo (lo + (len * 4096))) in
              Lock_client.with_lock w.clients.(c) ~rid:1 ~mode:m ~ranges
                (fun _ ->
                  Engine.sleep w.eng 1e-4;
                  incr completed)))
        steps;
      run w;
      Lock_server.check_invariants w.server;
      !completed = List.length steps
      && Lock_server.queue_length w.server 1 = 0)

(* Tracer-based grant-contract property: every grant must cover its
   request, never expand the start, use a fresh SN per write grant, and
   only carry the CANCELING state when early revocation is on. *)
let prop_grant_contract =
  let open QCheck in
  let scenario =
    Gen.(
      pair (int_bound 2)
        (list_size (int_range 3 25)
           (triple (int_bound 3) (oneofl all_modes)
              (pair (int_bound 20) (int_range 1 6)))))
  in
  let print_s (p, steps) =
    Printf.sprintf "policy=%d %s" p
      (String.concat ";"
         (List.map
            (fun (c, m, (b, n)) ->
              Printf.sprintf "c%d:%s[%d,+%d)" c (Mode.to_string m) b n)
            steps))
  in
  Test.make ~name:"grants cover requests, never expand lo, fresh write SNs"
    ~count:60
    (make ~print:print_s scenario)
    (fun (policy_idx, steps) ->
      let policy =
        List.nth
          [ Policy.seqdlm; Policy.dlm_basic;
            Policy.without_early_revocation Policy.seqdlm ]
          policy_idx
      in
      let w = make_world ~n:4 ~policy () in
      w.flush_time := 0.002;
      let ok = ref true in
      (* Tracer-side checks: write-grant SNs are never reused on a
         resource, the mode only ever upgrades, and CANCELING grants
         appear only when early revocation is on. *)
      let write_sns = Hashtbl.create 64 in
      Lock_server.add_tracer w.server (fun _now ev ->
          match ev with
          | Lock_server.T_grant (g, _) ->
              if Mode.is_write g.Types.mode then begin
                if Hashtbl.mem write_sns (g.Types.rid, g.Types.sn) then
                  ok := false;
                Hashtbl.replace write_sns (g.Types.rid, g.Types.sn) ()
              end;
              if
                g.Types.state = Lcm.Canceling
                && not policy.Policy.early_revocation
              then ok := false
          | Lock_server.T_request _ | Lock_server.T_revoke _
          | Lock_server.T_ack _ | Lock_server.T_release _
          | Lock_server.T_downgrade _ | Lock_server.T_crash _ -> ());
      (* Client-side checks at every acquire: the held lock covers the
         requested range, never starts above it, and its mode subsumes
         the requested one. *)
      List.iteri
        (fun idx (c, m, (blk, len)) ->
          spawn w
            (Printf.sprintf "op%d" idx)
            (fun () ->
              Engine.sleep w.eng (float_of_int idx *. 1e-4);
              let lo = blk * 4096 in
              let req = iv lo (lo + (len * 4096)) in
              Lock_client.with_lock w.clients.(c) ~rid:1 ~mode:m
                ~ranges:(Ranges.single req)
                (fun h ->
                  let hull = Ranges.hull (Lock_client.granted_ranges h) in
                  if not (Interval.contains hull req) then ok := false;
                  if hull.Interval.lo > req.Interval.lo then ok := false;
                  if
                    not
                      (Mode.subsumes ~cached:(Lock_client.mode h) ~wanted:m)
                  then ok := false;
                  Engine.sleep w.eng 1e-4)))
        steps;
      run w;
      Lock_server.check_invariants w.server;
      !ok)

(* Greedy expansion must stop at every incompatible grant's ranges, not
   only at grants that start above the request: a multi-range grant can
   straddle the request's end with its hull while its exact ranges leave
   the request room.  Here the PR read fits in the BW grant's gap and
   may grow only up to its upper range. *)
let test_expansion_bounded_by_straddling_grant () =
  let w = make_world ~n:2 () in
  let granted = ref [] in
  let submit client mode ranges =
    Lock_server.submit w.server
      { Types.client; rid = 1; mode; ranges = Ranges.of_list ranges }
      ~on_grant:(fun g -> granted := g :: !granted)
  in
  submit 0 Mode.BW [ iv 4096 12288; iv 28672 36864 ];
  submit 1 Mode.PR [ iv 12288 20480 ];
  (match !granted with
  | [ pr; _ ] ->
      Alcotest.(check (list (pair int int)))
        "read expands up to the write's upper range"
        [ (12288, 28672) ]
        (List.map
           (fun (r : Interval.t) -> (r.lo, r.hi))
           (pr.Types.ranges :> Interval.t list))
  | _ -> Alcotest.fail "expected two grants");
  Lock_server.check_invariants w.server

(* ------------------------------------------------------------------ *)
(* Lock-client cache lookup                                            *)
(* ------------------------------------------------------------------ *)

let no_expansion =
  { Policy.seqdlm with name = "SeqDLM-noExp"; expansion = Policy.No_expansion }

(* The reference's usability test: a cached lock serves a request when
   it is still GRANTED (a cancel only ever starts on a CANCELING lock),
   its mode subsumes the wanted one, and every requested range lies
   inside one of its ranges. *)
let usable_for h ~mode ~ranges =
  (not (Lock_client.is_canceling h))
  && Mode.subsumes ~cached:(Lock_client.mode h) ~wanted:mode
  && List.for_all
       (fun q ->
         List.exists
           (fun r -> Interval.contains r q)
           (granted_list h))
       (ranges : Ranges.t :> Interval.t list)

let test_client_lookup_newest_wins () =
  let w = make_world ~n:2 ~policy:no_expansion () in
  let c = w.clients.(0) in
  let picked = ref [] in
  let acquire_release ranges =
    let h =
      Lock_client.acquire c ~rid:1 ~mode:Mode.PR
        ~ranges:(Ranges.of_list ranges)
    in
    Lock_client.release c h;
    Lock_client.lock_id h
  in
  spawn w "c0" (fun () ->
      let a = acquire_release [ iv 0 8192 ] in
      let b = acquire_release [ iv 4096 12288 ] in
      (* [4096, 8192) lies inside both: the newer lock serves it. *)
      picked := [ a; b; acquire_release [ iv 4096 8192 ] ];
      Engine.sleep w.eng 0.5;
      (* c1's write has revoked [b] alone; the older [a] serves now. *)
      picked := !picked @ [ acquire_release [ iv 4096 8192 ] ]);
  spawn w "c1" (fun () ->
      Engine.sleep w.eng 0.1;
      Lock_client.with_lock w.clients.(1) ~rid:1 ~mode:Mode.NBW
        ~ranges:(Ranges.single (iv 8192 12288))
        (fun _ -> ()));
  run w;
  match !picked with
  | [ a; b; first; second ] ->
      Alcotest.(check bool) "two locks" true (a <> b);
      Alcotest.(check int) "newest covering lock wins" b first;
      Alcotest.(check int) "older lock once the newer is gone" a second;
      Alcotest.(check int) "both lookups hit" 2 (Lock_client.cache_hits c);
      Alcotest.(check int) "one lock left" 1 (Lock_client.cached_locks c)
  | _ -> Alcotest.fail "c0 did not finish"

(* Differential: the indexed lookup against a newest-first list of every
   lock each client installed, scanned front to back.
   Random multi-range traffic from three clients on two resources drives
   installs, same-client merges (the grant's [replaces]), revokes,
   cancels and releases; before each acquire the list names the lock the
   cache must hand out — or none, and then the acquire must miss.  A step
   may re-read its first block afterwards, which the cache can usually
   serve, often from more than one covering lock. *)
let prop_client_lookup_matches_list =
  let open QCheck in
  let n_clients = 3 in
  let policies =
    [ no_expansion; Policy.seqdlm; Policy.without_conversion no_expansion;
      Policy.dlm_datatype ]
  in
  let gen_ranges =
    (* 1-3 disjoint ranges in 4 KiB blocks, sometimes listed high first *)
    Gen.(
      map2
        (fun parts high_first ->
          let _, rs =
            List.fold_left
              (fun (at, acc) (gap, len) ->
                let lo = at + gap in
                (lo + len, iv (lo * 4096) ((lo + len) * 4096) :: acc))
              (0, []) parts
          in
          if high_first then rs else List.rev rs)
        (list_size
           (frequency [ (2, return 1); (1, int_range 2 3) ])
           (pair (int_bound 4) (int_range 1 3)))
        bool)
  in
  let gen_step =
    Gen.(
      map2
        (fun (c, rid, mode) (ranges, again) -> (c, rid, mode, ranges, again))
        (triple
           (int_bound (n_clients - 1))
           (int_range 1 2)
           (* reads dominate, so a client collects overlapping PR locks *)
           (frequency
              [ (4, return Mode.PR); (1, return Mode.NBW); (1, return Mode.BW);
                (1, return Mode.PW) ]))
        (pair gen_ranges bool))
  in
  let print_step (c, rid, m, ranges, again) =
    Printf.sprintf "c%d r%d %s %s%s" c rid (Mode.to_string m)
      (String.concat ","
         (List.map
            (fun (i : Interval.t) -> Printf.sprintf "[%d,%d)" i.lo i.hi)
            ranges))
      (if again then " +reread" else "")
  in
  Test.make ~name:"lock-client lookup == newest-first list scan" ~count:100
    (make
       ~print:(fun (p, steps) ->
         Printf.sprintf "policy=%s\n%s" (List.nth policies p).Policy.name
           (String.concat "\n" (List.map print_step steps)))
       Gen.(
         pair
           (int_bound (List.length policies - 1))
           (list_size (int_range 5 60) gen_step)))
    (fun (p, steps) ->
      let w = make_world ~n:n_clients ~policy:(List.nth policies p) () in
      w.flush_time := 0.002;
      let replaces = Hashtbl.create 64 in
      Lock_server.add_tracer w.server (fun _ ev ->
          match ev with
          | Lock_server.T_grant (g, _) ->
              Hashtbl.replace replaces g.Types.lock_id g.Types.replaces
          | _ -> ());
      (* per client, newest first: (rid, lock id, handle) *)
      let installed = Array.make n_clients [] in
      let ok = ref true in
      let acquire c ~rid ~mode ~ranges =
        let expect =
          List.find_opt
            (fun (r, _, h) -> r = rid && usable_for h ~mode ~ranges)
            installed.(c)
        in
        let h = Lock_client.acquire w.clients.(c) ~rid ~mode ~ranges in
        (match expect with
        | Some (_, _, h') -> if h != h' then ok := false
        | None ->
            (* a miss: the handle is a freshly installed lock *)
            if List.exists (fun (_, _, h') -> h == h') installed.(c) then
              ok := false;
            let id = Lock_client.lock_id h in
            let gone = Hashtbl.find replaces id in
            installed.(c) <-
              (rid, id, h)
              :: List.filter
                   (fun (r, i, _) -> r <> rid || not (List.mem i gone))
                   installed.(c));
        h
      in
      List.iteri
        (fun idx (c, rid, mode, ranges, again) ->
          spawn w
            (Printf.sprintf "op%d" idx)
            (fun () ->
              Engine.sleep w.eng (float_of_int idx *. 1.5e-3);
              let h = acquire c ~rid ~mode ~ranges:(Ranges.of_list ranges) in
              Engine.sleep w.eng 1e-4;
              Lock_client.release w.clients.(c) h;
              if again then begin
                let lo = (List.hd ranges).Interval.lo in
                let h =
                  acquire c ~rid ~mode
                    ~ranges:(Ranges.single (iv lo (lo + 4096)))
                in
                Lock_client.release w.clients.(c) h
              end))
        steps;
      run w;
      Lock_server.check_invariants w.server;
      !ok)

(* Compatibility vs the independent Table II transcription, plus the
   structural symmetry the paper's table implies: in the GRANTED state
   compatibility is an undirected relation (only PR/PR is true), so
   req/granted must commute.  The CANCELING column is deliberately
   asymmetric — NBW requests overlap a canceling holder's flush (early
   grant, Fig. 6) while the converse does not — so the symmetry claim is
   scoped to GRANTED and the oracle check covers both states. *)
let prop_lcm_table2_symmetry =
  let open QCheck in
  let gen = Gen.(pair (oneofl all_modes) (oneofl all_modes)) in
  Test.make ~name:"Table II: granted-state symmetry, both states match oracle"
    ~count:100
    (make
       ~print:(fun (a, b) ->
         Printf.sprintf "req=%s granted=%s" (Mode.to_string a)
           (Mode.to_string b))
       gen)
    (fun (a, b) ->
      let symmetric =
        Lcm.compatible ~req:a ~granted:b ~state:Lcm.Granted
        = Lcm.compatible ~req:b ~granted:a ~state:Lcm.Granted
      in
      let matches_oracle =
        List.for_all
          (fun state ->
            Lcm.compatible ~req:a ~granted:b ~state
            = Check.Lcm_oracle.compatible ~req:a ~granted:b ~state)
          [ Lcm.Granted; Lcm.Canceling ]
      in
      symmetric && matches_oracle)

(* ------------------------------------------------------------------ *)
(* Differential model test: indexed server vs the list reference       *)
(* ------------------------------------------------------------------ *)

(* The production lock server keeps its per-resource state in indexed
   structures (Dllist wait queue, lock-id table, extent interval index);
   [Ref_lock_server] is the pre-index implementation kept verbatim, with
   plain lists.  Both are driven through [submit]/[control]/
   [sync_resource] with the same operation script — no simulated network,
   the test plays every client — and must stay observationally identical
   after every step: same grants in the same order (ids, modes, ranges,
   SNs, states, replaced locks), same revokes, same queue contents and
   sequence numbers. *)

(* Everything observable about one server, behind closures so the same
   driver handles both modules. *)
type side = {
  s_submit : Types.request -> unit;
  s_control : Types.ctl_msg -> unit;
  s_sync : client:int -> rid:int -> unit;
  (* newest first *)
  s_grants :
    (int * int * int * Mode.t * (int * int) list * int * bool * bool * int list)
    list
    ref;
  s_revokes : (int * int * int) list ref;
  s_syncs : int ref;
  s_live : (int * int) list ref; (* (rid, lock_id), newest first *)
  s_q_len : int -> int;
  s_next_sn : int -> int;
  s_granted : int -> Types.lock list;
  s_waiting : int -> (int * Mode.t * Mode.t * (int * int) list) list;
  (* the server's stats record as a comparable tuple: the counters, then
     the two Fig. 17 wait sums *)
  s_stats :
    unit -> (int * int * int * int * int * int * int * int * int) * float * float;
}

let flat_ranges (r : Ranges.t) =
  List.map
    (fun (i : Interval.t) -> (i.Interval.lo, i.Interval.hi))
    (r :> Interval.t list)

let observe_grant side (g : Types.grant) ~early =
  side.s_grants :=
    ( g.lock_id,
      g.rid,
      g.client,
      g.mode,
      flat_ranges g.ranges,
      g.sn,
      g.state = Lcm.Canceling,
      early,
      g.replaces )
    :: !(side.s_grants);
  side.s_live :=
    (g.rid, g.lock_id)
    :: List.filter
         (fun (rid, id) -> rid <> g.rid || not (List.mem id g.replaces))
         !(side.s_live)

let indexed_side eng ~policy ~clients =
  let node = Netsim.Node.create eng params ~name:"idx-node" () in
  let s = Lock_server.create eng params ~node ~name:"idx" ~policy in
  List.iter (fun (cid, ep) -> Lock_server.register_client s cid ep) clients;
  let side =
    ref
      {
        s_submit = (fun _ -> ());
        s_control = Lock_server.control s;
        s_sync = (fun ~client:_ ~rid:_ -> ());
        s_grants = ref [];
        s_revokes = ref [];
        s_syncs = ref 0;
        s_live = ref [];
        s_q_len = Lock_server.queue_length s;
        s_next_sn = Lock_server.next_sn s;
        s_granted = Lock_server.granted_locks s;
        s_waiting =
          (fun rid ->
            List.map
              (fun (w : Lock_server.waiter_view) ->
                (w.q_client, w.q_mode, w.q_eff_mode, flat_ranges w.q_ranges))
              (Lock_server.waiting_view s rid));
        s_stats =
          (fun () ->
            let st = Lock_server.stats s in
            ( ( st.Lock_server.grants,
                st.early_grants,
                st.early_revocations,
                st.revokes_sent,
                st.upgrades,
                st.downgrades,
                st.releases,
                st.expansions,
                st.max_queue ),
              st.revocation_wait,
              st.release_wait ));
      }
  in
  Lock_server.add_tracer s (fun _ ev ->
      match ev with
      | Lock_server.T_grant (g, early) ->
          observe_grant !side g ~early:(early = `Early)
      | Lock_server.T_revoke { t_rid; t_lock_id; t_client } ->
          !side.s_revokes := (t_rid, t_lock_id, t_client) :: !(!side.s_revokes)
      | _ -> ());
  side :=
    {
      !side with
      s_submit = (fun req -> Lock_server.submit s req ~on_grant:(fun _ -> ()));
      s_sync =
        (fun ~client ~rid ->
          Lock_server.sync_resource s rid ~on_behalf:client ~reply:(fun () ->
              incr !side.s_syncs));
    };
  (!side, s)

let reference_side eng ~policy ~clients =
  let node = Netsim.Node.create eng params ~name:"ref-node" () in
  let s = Ref_lock_server.create eng params ~node ~name:"ref" ~policy in
  List.iter (fun (cid, ep) -> Ref_lock_server.register_client s cid ep) clients;
  let side =
    ref
      {
        s_submit = (fun _ -> ());
        s_control = Ref_lock_server.control s;
        s_sync = (fun ~client:_ ~rid:_ -> ());
        s_grants = ref [];
        s_revokes = ref [];
        s_syncs = ref 0;
        s_live = ref [];
        s_q_len = Ref_lock_server.queue_length s;
        s_next_sn = Ref_lock_server.next_sn s;
        s_granted = Ref_lock_server.granted_locks s;
        s_waiting =
          (fun rid ->
            List.map
              (fun (w : Ref_lock_server.waiter_view) ->
                (w.q_client, w.q_mode, w.q_eff_mode, flat_ranges w.q_ranges))
              (Ref_lock_server.waiting_view s rid));
        s_stats =
          (fun () ->
            let st = Ref_lock_server.stats s in
            ( ( st.Ref_lock_server.grants,
                st.early_grants,
                st.early_revocations,
                st.revokes_sent,
                st.upgrades,
                st.downgrades,
                st.releases,
                st.expansions,
                st.max_queue ),
              st.revocation_wait,
              st.release_wait ));
      }
  in
  Ref_lock_server.add_tracer s (fun _ ev ->
      match ev with
      | Ref_lock_server.T_grant (g, early) ->
          observe_grant !side g ~early:(early = `Early)
      | Ref_lock_server.T_revoke { t_rid; t_lock_id; t_client } ->
          !side.s_revokes := (t_rid, t_lock_id, t_client) :: !(!side.s_revokes)
      | _ -> ());
  side :=
    {
      !side with
      s_submit =
        (fun req -> Ref_lock_server.submit s req ~on_grant:(fun _ -> ()));
      s_sync =
        (fun ~client ~rid ->
          Ref_lock_server.sync_resource s rid ~on_behalf:client
            ~reply:(fun () -> incr !side.s_syncs));
    };
  !side

let sides_agree ~n_rids a b =
  !(a.s_grants) = !(b.s_grants)
  && !(a.s_revokes) = !(b.s_revokes)
  && !(a.s_syncs) = !(b.s_syncs)
  && a.s_stats () = b.s_stats ()
  && List.for_all
       (fun rid ->
         a.s_q_len rid = b.s_q_len rid
         && a.s_next_sn rid = b.s_next_sn rid
         && a.s_granted rid = b.s_granted rid
         && a.s_waiting rid = b.s_waiting rid)
       (List.init n_rids (fun i -> i))

(* The scripted steps; a script may also hold [`Convoy] groups of
   them, which [run_model_script] flattens. *)
type model_op =
  [ `Req of int * int * Mode.t * Interval.t list
  | `Burst of (int * int * Mode.t * Interval.t list) list
  | `Ack of int
  | `Release of int
  | `Downgrade of int * Mode.t
  | `Sync of int * int ]

(* One scripted step against one side.  Acks/releases/downgrades address
   locks through the side's own event logs — the logs are asserted equal
   after every step, so both sides always receive the same message. *)
let apply_op side (op : model_op) =
  match op with
  | `Req (client, rid, mode, ranges) ->
      side.s_submit { Types.client; rid; mode; ranges = Ranges.of_list ranges }
  | `Burst reqs ->
      List.iter
        (fun (client, rid, mode, ranges) ->
          side.s_submit
            { Types.client; rid; mode; ranges = Ranges.of_list ranges })
        reqs
  | `Ack k -> (
      match !(side.s_revokes) with
      | [] -> ()
      | log ->
          let rid, lock_id, _ = List.nth log (k mod List.length log) in
          side.s_control (Types.Revoke_ack { rid; lock_id }))
  | `Release k -> (
      match !(side.s_live) with
      | [] -> ()
      | live ->
          let rid, lock_id = List.nth live (k mod List.length live) in
          side.s_live := List.filter (( <> ) (rid, lock_id)) live;
          side.s_control (Types.Release { rid; lock_id }))
  | `Downgrade (k, mode) -> (
      match !(side.s_live) with
      | [] -> ()
      | live ->
          let rid, lock_id = List.nth live (k mod List.length live) in
          side.s_control (Types.Downgrade { rid; lock_id; mode }))
  | `Sync (client, rid) -> side.s_sync ~client ~rid

let model_policies =
  Policy.all
  @ [
      Policy.without_early_revocation Policy.seqdlm;
      Policy.without_conversion Policy.seqdlm;
    ]

(* Generators and driver shared by the two differential properties. *)
let model_clients = 3
let model_rids = 2

let gen_model_ranges =
  (* mostly singletons; sometimes two disjoint ranges (datatype shape) *)
  QCheck.Gen.(
    frequency
      [
        ( 4,
          map2
            (fun lo len -> [ iv lo (lo + len) ])
            (int_bound 40) (int_range 1 24) );
        ( 1,
          map
            (fun (lo, len, gap, len2) ->
              [ iv lo (lo + len); iv (lo + len + gap) (lo + len + gap + len2) ])
            (quad (int_bound 30) (int_range 1 12) (int_range 1 8)
               (int_range 1 12)) );
      ])

let gen_model_req =
  QCheck.Gen.(
    map2
      (fun (c, r, m) ranges -> (c, r, m, ranges))
      (triple
         (int_bound (model_clients - 1))
         (int_bound (model_rids - 1))
         (oneofl all_modes))
      gen_model_ranges)

let gen_model_op =
  QCheck.Gen.(
    frequency
      [
        (8, map (fun req -> `Req req) gen_model_req);
        (2, map (fun k -> `Ack k) (int_bound 30));
        (3, map (fun k -> `Release k) (int_bound 30));
        ( 1,
          map2
            (fun k m -> `Downgrade (k, m))
            (int_bound 30) (oneofl all_modes) );
        ( 1,
          map2
            (fun c r -> `Sync (c, r))
            (int_bound (model_clients - 1))
            (int_bound (model_rids - 1)) );
      ])

let print_model_req (c, r, m, ranges) =
  Printf.sprintf "c%d r%d %s %s" c r (Mode.to_string m)
    (String.concat ","
       (List.map
          (fun (i : Interval.t) ->
            Printf.sprintf "[%d,%d)" i.Interval.lo i.Interval.hi)
          ranges))

let print_basic_op : model_op -> string = function
  | `Req req -> "req " ^ print_model_req req
  | `Burst reqs ->
      Printf.sprintf "burst{ %s }"
        (String.concat "; " (List.map print_model_req reqs))
  | `Ack k -> Printf.sprintf "ack#%d" k
  | `Release k -> Printf.sprintf "release#%d" k
  | `Downgrade (k, m) -> Printf.sprintf "downgrade#%d->%s" k (Mode.to_string m)
  | `Sync (c, r) -> Printf.sprintf "sync c%d r%d" c r

let print_model_op = function
  | `Convoy ops ->
      Printf.sprintf "convoy{ %s }"
        (String.concat "; " (List.map print_basic_op ops))
  | #model_op as op -> print_basic_op op

let print_model_script (p, ops) =
  Printf.sprintf "policy=%s\n%s" (List.nth model_policies p).Policy.name
    (String.concat "\n" (List.map print_model_op ops))

(* Simulated time moves one tick between scripted steps, so the wait
   sums in [s_stats] tell when each waiter's revocation wait ended: a
   server that stamps the mark a step late, say by skipping a pass that
   would have stamped it, diverges there.  The sleeper keeps
   [Engine.run] dispatching until the tick is over, past the revoke
   couriers the step spawned. *)
let tick eng =
  Engine.spawn eng ~name:"tick" (fun () -> Engine.sleep eng 1e-3);
  Engine.run eng

let run_model_script (p, ops) =
  let policy = List.nth model_policies p in
  let eng = Engine.create () in
  (* Dummy revocation callbacks: the test itself plays the clients,
     answering revokes out of the trace log, so what the couriers
     deliver is dropped. *)
  let clients =
    List.init model_clients (fun cid ->
        let node =
          Netsim.Node.create eng params
            ~name:(Printf.sprintf "mc%d" cid)
            ()
        in
        ( cid,
          Netsim.Rpc.endpoint eng params ~node
            ~name:(Printf.sprintf "mc%d.cb" cid)
            ~handler:(fun _ ~reply -> reply ()) ))
  in
  let idx, server = indexed_side eng ~policy ~clients in
  let re = reference_side eng ~policy ~clients in
  (* The indexed server's index invariants after every step, so each
     scripted transition also checks that its two interval trees
     partition the granted set by (mode, state).  Not the full
     [check_invariants]: a scripted downgrade may name a stronger mode
     (PR -> PW, say), which no client sends and which breaks the SN and
     compatibility invariants on both sides alike. *)
  List.for_all
    (fun op ->
      apply_op idx op;
      apply_op re op;
      tick eng;
      Lock_server.check_indexes server;
      sides_agree ~n_rids:model_rids idx re)
    (List.concat_map (function `Convoy ops -> ops | #model_op as op -> [ op ]) ops)

let prop_indexed_matches_reference =
  let open QCheck in
  Test.make
    ~name:"indexed lock server == list reference (grants, SNs, queues)"
    ~count:400
    (make ~print:print_model_script
       Gen.(
         pair
           (int_bound (List.length model_policies - 1))
           (list_size (int_range 1 40) gen_model_op)))
    run_model_script

let prop_bursts_match_reference =
  let open QCheck in
  (* Back-to-back submits with no control message in between: every
     request of a burst after the first meets the quiescent pass cache
     its predecessor left behind, so these scripts drive the indexed
     server's O(1) fast path against the list reference, which has no
     cache.  [sides_agree] demands identical grants, SNs, queue order
     and stats counters after every step — interleaved with the usual
     acks, releases, downgrades and syncs so bursts also land
     mid-protocol. *)
  let gen_op =
    Gen.(
      frequency
        [
          (4, gen_model_op);
          ( 4,
            map
              (fun reqs -> `Burst reqs)
              (list_size (int_range 1 8) gen_model_req) );
        ])
  in
  Test.make ~name:"submit bursts hit the pass cache (vs reference)"
    ~count:300
    (make ~print:print_model_script
       Gen.(
         pair
           (int_bound (List.length model_policies - 1))
           (list_size (int_range 1 30) gen_op)))
    run_model_script

(* The pw-convoy handoff in miniature, under SeqDLM: several clients
   queue PW requests on one range, then each head lock in turn is
   downgraded PW -> NBW and released, as the holder's flush does.  The
   downgrades meet queued PW waiters that find NBW exactly as
   incompatible as PW, so the indexed server skips their passes, and
   each release grants the next head before any waiter is left queued,
   so it passes once; the reference passes every time. *)
let gen_convoy =
  QCheck.Gen.(
    map3
      (fun clients rid range ->
        `Convoy
          (List.map (fun c -> `Req (c, rid, Mode.PW, range)) clients
           @ List.concat_map
               (fun _ -> [ `Downgrade (0, Mode.NBW); `Release 0 ])
               clients
            : model_op list))
      (list_size (int_range 2 5) (int_bound (model_clients - 1)))
      (int_bound (model_rids - 1))
      (oneof [ return [ Interval.to_eof ~lo:0 ]; gen_model_ranges ]))

let prop_convoy_matches_reference =
  let open QCheck in
  let seqdlm =
    let rec index i = function
      | [] -> assert false
      | (p : Policy.t) :: rest ->
          if String.equal p.name Policy.seqdlm.name then i
          else index (i + 1) rest
    in
    index 0 model_policies
  in
  Test.make ~name:"convoy handoffs skip no-op passes (vs reference)"
    ~count:200
    (make ~print:print_model_script
       Gen.(
         pair (return seqdlm)
           (list_size (int_range 1 12)
              (frequency [ (3, gen_convoy); (2, gen_model_op) ]))))
    run_model_script

let suite =
  let q = QCheck_alcotest.to_alcotest ~rand:(Fuzz.Seed.rand_state ()) in
  [
    ( "dlm.mode",
      [
        Alcotest.test_case "capabilities" `Quick test_mode_capabilities;
        Alcotest.test_case "join table (Fig. 9)" `Quick test_mode_join_table;
        Alcotest.test_case "subsumes table" `Quick test_mode_subsumes;
        q prop_join_lattice;
      ] );
    ( "dlm.lcm",
      [
        Alcotest.test_case "Table II exact" `Quick test_lcm_table2;
        Alcotest.test_case "PW blocks everything" `Quick
          test_lcm_pw_blocks_everything;
        Alcotest.test_case "golden table vs oracle" `Quick
          test_lcm_golden_table;
        q prop_lcm_table2_symmetry;
      ] );
    ( "dlm.protocol",
      [
        Alcotest.test_case "grant + EOF expansion" `Quick
          test_grant_and_expansion;
        Alcotest.test_case "cache reuse" `Quick test_cache_reuse;
        Alcotest.test_case "normal grant waits for flush" `Quick
          test_pw_conflict_waits_for_flush;
        Alcotest.test_case "early grant overlaps flush (Fig. 6)" `Quick
          test_early_grant_overlaps_flush;
        Alcotest.test_case "early revocation piggyback" `Quick
          test_early_revocation_piggyback;
        Alcotest.test_case "sequencer SNs unique" `Quick
          test_sequencer_monotonic;
        Alcotest.test_case "expansion bounded by waiter" `Quick
          test_expansion_bounded_by_waiter;
        Alcotest.test_case "expansion bounded by straddling grant" `Quick
          test_expansion_bounded_by_straddling_grant;
        Alcotest.test_case "DLM-Lustre expansion cap" `Quick
          test_lustre_cap_after_threshold;
        Alcotest.test_case "datatype exact ranges" `Quick
          test_datatype_exact_ranges;
      ] );
    ( "dlm.conversion",
      [
        Alcotest.test_case "upgrade NBW+PR -> PW (Fig. 11)" `Quick
          test_upgrade_same_client;
        Alcotest.test_case "no upgrade without conversion" `Quick
          test_no_upgrade_without_conversion;
        Alcotest.test_case "downgrade BW -> NBW (Fig. 12)" `Quick
          test_downgrade_bw_to_nbw;
        Alcotest.test_case "downgrade clean PW -> PR" `Quick
          test_downgrade_pw_to_pr_when_clean;
        Alcotest.test_case "upgrade reclaims other readers" `Quick
          test_upgrade_reclaims_other_readers;
        Alcotest.test_case "NBW+BW joins at BW" `Quick test_upgrade_nbw_plus_bw;
        Alcotest.test_case "early-revoked grant self-cancels" `Quick
          test_early_revoked_grant_cancels_after_use;
      ] );
    ( "dlm.client_cache",
      [
        Alcotest.test_case "newest covering lock wins" `Quick
          test_client_lookup_newest_wins;
        q prop_client_lookup_matches_list;
      ] );
    ( "dlm.server",
      [
        Alcotest.test_case "min unreleased write SN" `Quick
          test_min_unreleased_write_sn;
        Alcotest.test_case "mSN after release" `Quick
          test_min_unreleased_none_after_release;
        Alcotest.test_case "sync_resource" `Quick test_sync_resource;
        q prop_random_protocol;
        q prop_grant_contract;
        q prop_indexed_matches_reference;
        q prop_bursts_match_reference;
        Alcotest.test_case "CANCELING NBW by downgrade or reinstall" `Quick
          test_canceling_nbw_from_downgrade_and_reinstall;
        Alcotest.test_case "early label only over CANCELING NBW" `Quick
          test_early_label_only_over_canceling_nbw;
        q prop_convoy_matches_reference;
      ] );
  ]
