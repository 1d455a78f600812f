(* The simulation fuzzer's own tests: clean seed ranges pass every
   oracle; identical seeds give identical fingerprints; planted bugs
   (SN reuse, dropped flush blocks) are caught within the CI budget and
   shrink to small replayable reproducers. *)

let base = Fuzz.Seed.base ()

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let is_sim (c : Fuzz.Case.t) =
  match c.kind with Fuzz.Case.Sim _ -> true | Fuzz.Case.Analytic _ -> false

(* First generated case from [from] satisfying [p] (the generator mixes
   kinds ~19:1, so this terminates fast for either kind). *)
let first_case p from =
  let rec go s =
    let c = Fuzz.Gen.of_seed s in
    if p c then c else go (s + 1)
  in
  go from

let test_seed_range_passes () =
  let summary = Fuzz.Driver.run_range ~base ~count:40 () in
  (match summary.failure with
  | Some f ->
      Alcotest.fail (Printf.sprintf "seed %d failed: %s" f.seed f.reason)
  | None -> ());
  Alcotest.(check int) "all seeds executed" 40 summary.tested;
  Alcotest.(check bool) "simulated cases generated" true (summary.sims > 0)

let test_same_seed_same_fingerprint () =
  (* Exec already double-runs internally; this checks reproducibility
     across independent invocations too. *)
  let case = first_case is_sim base in
  let o1 = Fuzz.Exec.run case in
  let o2 = Fuzz.Exec.run case in
  Alcotest.(check int64) "identical fingerprints" o1.fingerprint o2.fingerprint;
  Alcotest.(check int) "identical op counts" o1.ops o2.ops;
  Alcotest.(check (float 0.)) "identical virtual end" o1.virtual_end
    o2.virtual_end

let test_analytic_oracle_runs () =
  let case = first_case (fun c -> not (is_sim c)) base in
  let o = Fuzz.Exec.run case in
  Alcotest.(check string) "analytic oracle vouched" "analytic" o.oracle;
  Alcotest.(check bool) "simulated time advanced" true (o.virtual_end > 0.)

let test_sn_reuse_caught_and_shrinks () =
  let summary =
    Fuzz.Driver.run_range ~inject:Fuzz.Exec.Sn_reuse ~base ~count:200 ()
  in
  match summary.failure with
  | None -> Alcotest.fail "planted SN-reuse bug survived 200 seeds"
  | Some f ->
      Alcotest.(check bool)
        (Printf.sprintf "an SN invariant caught it (got: %s)" f.reason)
        true
        (contains ~sub:"sn-" f.reason);
      Alcotest.(check bool)
        (Printf.sprintf "shrinks to <= 3 clients (got %d)"
           (Fuzz.Case.client_count f.shrunk))
        true
        (Fuzz.Case.client_count f.shrunk <= 3);
      Alcotest.(check bool)
        (Printf.sprintf "shrinks to <= 10 ops (got %d)"
           (Fuzz.Case.op_count f.shrunk))
        true
        (Fuzz.Case.op_count f.shrunk <= 10);
      (* The minimized case must itself be a reproducer. *)
      (match Fuzz.Exec.catch ~inject:Fuzz.Exec.Sn_reuse f.shrunk with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "minimized case no longer fails")

let test_drop_block_caught_by_shadow () =
  let summary =
    Fuzz.Driver.run_range ~inject:Fuzz.Exec.Drop_flush ~base ~count:200 ()
  in
  match summary.failure with
  | None -> Alcotest.fail "planted drop-block bug survived 200 seeds"
  | Some f ->
      Alcotest.(check bool)
        (Printf.sprintf "the shadow file caught it (got: %s)" f.reason)
        true
        (contains ~sub:"shadow-file divergence" f.reason);
      (* The repro artifact round-trips and replays. *)
      let doc = Fuzz.Driver.repro_json f in
      (match Obs.Json.parse (Obs.Json.to_string doc) with
      | Ok _ -> ()
      | Error e -> Alcotest.fail ("repro JSON does not parse: " ^ e));
      Alcotest.(check bool) "replay hint names the seed" true
        (contains ~sub:(string_of_int f.seed) (Fuzz.Driver.repro_hint f));
      Alcotest.(check bool) "skeleton replays through Exec" true
        (contains ~sub:"Fuzz.Exec.run" (Fuzz.Case.to_ocaml_test f.shrunk))

(* ---- open-loop load segments (lib/load integration) ---- *)

let has_load (c : Fuzz.Case.t) =
  match c.kind with
  | Fuzz.Case.Sim s -> Option.is_some s.Fuzz.Case.load
  | Fuzz.Case.Analytic _ -> false

(* The generator draws load segments at the tail: they must actually
   appear, and a case carrying one must pass every oracle (including
   the load-conservation invariant Exec adds for the segment). *)
let test_load_segment_generated_and_runs () =
  let case = first_case has_load base in
  let o = Fuzz.Exec.run case in
  Alcotest.(check bool) "virtual time advanced" true (o.virtual_end > 0.);
  let o2 = Fuzz.Exec.run case in
  Alcotest.(check int64) "load segment is deterministic" o.fingerprint
    o2.fingerprint

(* Tail-draw stability: deleting the load segment from a case must not
   change anything the earlier draws produced — i.e. the segment is
   purely additive on the generated shape. *)
let test_load_segment_tail_positioned () =
  let case = first_case has_load base in
  match case.kind with
  | Fuzz.Case.Analytic _ -> assert false
  | Fuzz.Case.Sim s ->
      let stripped = { case with kind = Fuzz.Case.Sim { s with load = None } } in
      ignore (Fuzz.Exec.run stripped);
      (* summary of the stripped case is the old-style summary prefix *)
      let sum = Fuzz.Case.summary case
      and sum' = Fuzz.Case.summary stripped in
      Alcotest.(check bool) "stripped summary is a prefix" true
        (String.length sum > String.length sum'
        && String.sub sum 0 (String.length sum') = sum')

let has_migrations (c : Fuzz.Case.t) = Fuzz.Case.migration_count c > 0
let has_partitions (c : Fuzz.Case.t) = Fuzz.Case.partition_count c > 0

let has_repl (c : Fuzz.Case.t) =
  match c.kind with
  | Fuzz.Case.Sim s -> s.Fuzz.Case.repl > 0
  | Fuzz.Case.Analytic _ -> false

let has_dbl (c : Fuzz.Case.t) =
  match c.kind with
  | Fuzz.Case.Sim s -> Option.is_some s.Fuzz.Case.dbl
  | Fuzz.Case.Analytic _ -> false

(* No layer newer than the one under test: the shrinker sheds newest
   first, so "drops X first" only holds when X is the newest layer the
   case carries. *)
let no_repl_era (c : Fuzz.Case.t) =
  (not (has_repl c)) && (not (has_partitions c)) && not (has_dbl c)

(* The shrinker's very first candidate for a load-carrying case drops
   the whole segment, so old failures minimize back to plain cases.
   (Migration-free case: migrations are a yet-newer layer and shed
   before the load segment — covered by its own test below.) *)
let test_shrink_drops_load_first () =
  let case =
    first_case
      (fun c -> has_load c && (not (has_migrations c)) && no_repl_era c)
      base
  in
  match Fuzz.Shrink.candidates case with
  | [] -> Alcotest.fail "no candidates for a load-carrying case"
  | first :: _ ->
      Alcotest.(check bool) "first candidate has no load segment" true
        (not (has_load first));
      (* and nothing else about the sim changed *)
      (match (case.kind, first.kind) with
      | Fuzz.Case.Sim a, Fuzz.Case.Sim b ->
          Alcotest.(check int) "clients kept" a.Fuzz.Case.n_clients
            b.Fuzz.Case.n_clients;
          Alcotest.(check int) "phases kept"
            (List.length a.Fuzz.Case.phases)
            (List.length b.Fuzz.Case.phases)
      | _ -> Alcotest.fail "candidate changed case kind")

(* ---- mid-run migrations (DESIGN.md §15 integration) ---- *)

(* The generator draws migrations at the very tail: they must appear,
   run oracle-clean (the suite-wide CCPFS_CHECK=full pass adds the
   ownership-exclusivity sweep), and stay deterministic. *)
let test_migration_segment_generated_and_runs () =
  let case = first_case has_migrations base in
  let o = Fuzz.Exec.run case in
  let o2 = Fuzz.Exec.run case in
  Alcotest.(check int64) "migration case is deterministic" o.fingerprint
    o2.fingerprint

(* Migrations shed before every pre-sharding layer — a failure that
   survives without them reproduces on a sharding-free case.  (The
   repl-era trio is newer still and sheds even earlier; excluded here.) *)
let test_shrink_drops_migrations_first () =
  let case = first_case (fun c -> has_migrations c && no_repl_era c) base in
  match Fuzz.Shrink.candidates case with
  | [] -> Alcotest.fail "no candidates for a migration-carrying case"
  | first :: _ ->
      Alcotest.(check bool) "first candidate has no migrations" true
        (not (has_migrations first));
      (match (case.kind, first.kind) with
      | Fuzz.Case.Sim a, Fuzz.Case.Sim b ->
          Alcotest.(check int) "clients kept" a.Fuzz.Case.n_clients
            b.Fuzz.Case.n_clients;
          Alcotest.(check bool) "load kept" true
            (Option.is_some a.Fuzz.Case.load = Option.is_some b.Fuzz.Case.load);
          Alcotest.(check int) "phases kept"
            (List.length a.Fuzz.Case.phases)
            (List.length b.Fuzz.Case.phases)
      | _ -> Alcotest.fail "candidate changed case kind")

let test_migration_json_and_skeleton () =
  let case = first_case has_migrations base in
  (match Obs.Json.parse (Obs.Json.to_string (Fuzz.Case.to_json case)) with
  | Error e -> Alcotest.fail e
  | Ok _ -> ());
  let skel = Fuzz.Case.to_ocaml_test case in
  Alcotest.(check bool) "skeleton embeds the migrations" true
    (contains ~sub:"mg_stripe" skel);
  Alcotest.(check bool) "summary mentions them" true
    (contains ~sub:"migration" (Fuzz.Case.summary case))

let test_load_segment_json_and_skeleton () =
  let case = first_case has_load base in
  (match Obs.Json.parse (Obs.Json.to_string (Fuzz.Case.to_json case)) with
  | Error e -> Alcotest.fail e
  | Ok _ -> ());
  let skel = Fuzz.Case.to_ocaml_test case in
  Alcotest.(check bool) "skeleton embeds the load segment" true
    (contains ~sub:"l_rate" skel && contains ~sub:"l_churn" skel);
  let plain = first_case (fun c -> is_sim c && not (has_load c)) base in
  Alcotest.(check bool) "plain skeleton writes load = None" true
    (contains ~sub:"load = None" (Fuzz.Case.to_ocaml_test plain))

(* ---- replication, partitions, double failures (DESIGN.md §16) ---- *)

(* A replicated case with a mid-phase crash recovers through election +
   grant-log replay instead of the client gather — under the shadow
   oracle, the repl invariant sweep and the determinism double-run. *)
let test_repl_replay_failover_case () =
  let case =
    first_case
      (fun c -> has_repl c && Fuzz.Case.mid_crash_count c > 0)
      base
  in
  let o = Fuzz.Exec.run case in
  let o2 = Fuzz.Exec.run case in
  Alcotest.(check int64) "replicated failover case is deterministic"
    o.fingerprint o2.fingerprint

let test_partition_segment_generated_and_runs () =
  let case = first_case has_partitions base in
  let o = Fuzz.Exec.run case in
  let o2 = Fuzz.Exec.run case in
  Alcotest.(check int64) "partition case is deterministic" o.fingerprint
    o2.fingerprint

(* An armed double failure: a second server actually dies inside the
   first failover's window (needs a mid-crash and >= 2 servers). *)
let has_armed_dbl (c : Fuzz.Case.t) =
  match c.kind with
  | Fuzz.Case.Sim s ->
      Option.is_some s.Fuzz.Case.dbl
      && s.Fuzz.Case.n_servers > 1
      && Fuzz.Case.mid_crash_count c > 0
  | Fuzz.Case.Analytic _ -> false

let test_double_failure_generated_and_runs () =
  let case = first_case has_armed_dbl base in
  let o = Fuzz.Exec.run case in
  let o2 = Fuzz.Exec.run case in
  Alcotest.(check int64) "double-failure case is deterministic" o.fingerprint
    o2.fingerprint

(* The repl-era trio is the newest draw layer: a double-failure case
   sheds its second crash before anything else. *)
let test_shrink_drops_double_failure_first () =
  let case = first_case has_dbl base in
  match Fuzz.Shrink.candidates case with
  | [] -> Alcotest.fail "no candidates for a double-failure case"
  | first :: _ -> (
      Alcotest.(check bool) "first candidate has no double failure" true
        (not (has_dbl first));
      match (case.kind, first.kind) with
      | Fuzz.Case.Sim a, Fuzz.Case.Sim b ->
          Alcotest.(check int) "replication kept" a.Fuzz.Case.repl
            b.Fuzz.Case.repl;
          Alcotest.(check int) "partitions kept"
            (List.length a.Fuzz.Case.partitions)
            (List.length b.Fuzz.Case.partitions);
          Alcotest.(check int) "phases kept"
            (List.length a.Fuzz.Case.phases)
            (List.length b.Fuzz.Case.phases)
      | _ -> Alcotest.fail "candidate changed case kind")

let test_repl_era_json_and_skeleton () =
  let case = first_case (fun c -> has_partitions c && has_repl c) base in
  (match Obs.Json.parse (Obs.Json.to_string (Fuzz.Case.to_json case)) with
  | Error e -> Alcotest.fail e
  | Ok _ -> ());
  let skel = Fuzz.Case.to_ocaml_test case in
  Alcotest.(check bool) "skeleton embeds the partitions" true
    (contains ~sub:"pt_server" skel);
  Alcotest.(check bool) "skeleton embeds the replication factor" true
    (contains ~sub:"repl = " skel);
  Alcotest.(check bool) "summary mentions the partitions" true
    (contains ~sub:"partition" (Fuzz.Case.summary case));
  let plain = first_case (fun c -> is_sim c && no_repl_era c) base in
  let pskel = Fuzz.Case.to_ocaml_test plain in
  Alcotest.(check bool) "plain skeleton writes repl = 0 and dbl = None" true
    (contains ~sub:"repl = 0" pskel && contains ~sub:"dbl = None" pskel)

(* The draw stream is frozen until the corpus is re-pinned: these are
   the summaries the generator produced while it still drew an RPC
   batch factor (24385 drew batch 8), with that field dropped.  The
   generator still consumes the retired draw, so every later draw —
   replication, partitions, double failures, migrations, load — lands
   where it did. *)
let pinned_summaries =
  [
    ( 24311,
      "seed 24311: SeqDLM, 4 client(s) x 4 server(s), 2 stripe(s), 1 \
       phase(s), 14 op(s), 0 crash(es), 1 mid-crash(es), loss 0.000 dup \
       0.018, repl f=2" );
    ( 24316,
      "seed 24316: DLM-datatype, 2 client(s) x 4 server(s), 4 stripe(s), 2 \
       phase(s), 19 op(s), 1 crash(es), 1 mid-crash(es), loss 0.027 dup \
       0.000, double-failure" );
    ( 24321,
      "seed 24321: DLM-basic, 2 client(s) x 2 server(s), 4 stripe(s), 3 \
       phase(s), 17 op(s), 2 crash(es), 1 mid-crash(es), repl f=2, 2 \
       partition(s), load(mmpp 860/s x9 cap 3 churn 2)" );
    ( 24349,
      "seed 24349: DLM-Lustre, 3 client(s) x 3 server(s), 1 stripe(s), 3 \
       phase(s), 37 op(s), 2 crash(es), 2 mid-crash(es), loss 0.014 dup \
       0.000, 2 partition(s), double-failure" );
    ( 24385,
      "seed 24385: SeqDLM, 3 client(s) x 2 server(s), 1 stripe(s), 2 \
       phase(s), 19 op(s), 1 crash(es), 1 mid-crash(es), 2 migration(s), \
       repl f=1, load(const 457/s x11 cap 2 churn 1)" );
  ]

let test_draw_stream_pinned () =
  List.iter
    (fun (seed, want) ->
      Alcotest.(check string)
        (Printf.sprintf "seed %d summary" seed)
        want
        (Fuzz.Case.summary (Fuzz.Gen.of_seed seed)))
    pinned_summaries

let test_case_json_shape () =
  let case = first_case is_sim base in
  match Obs.Json.parse (Obs.Json.to_string (Fuzz.Case.to_json case)) with
  | Error e -> Alcotest.fail e
  | Ok doc ->
      Alcotest.(check (option int))
        "seed survives" (Some case.Fuzz.Case.seed)
        (Option.bind (Obs.Json.member "seed" doc) Obs.Json.get_int)

let suite =
  [
    ( "fuzz",
      [
        Alcotest.test_case "seed range passes all oracles" `Quick
          test_seed_range_passes;
        Alcotest.test_case "same seed, same fingerprint" `Quick
          test_same_seed_same_fingerprint;
        Alcotest.test_case "analytic differential oracle" `Quick
          test_analytic_oracle_runs;
        Alcotest.test_case "planted SN reuse: caught and minimized" `Quick
          test_sn_reuse_caught_and_shrinks;
        Alcotest.test_case "planted block drop: caught by shadow file" `Quick
          test_drop_block_caught_by_shadow;
        Alcotest.test_case "case JSON round-trip" `Quick test_case_json_shape;
        Alcotest.test_case "load segment generated and deterministic" `Quick
          test_load_segment_generated_and_runs;
        Alcotest.test_case "load draw is tail-positioned" `Quick
          test_load_segment_tail_positioned;
        Alcotest.test_case "shrinker drops the load segment first" `Quick
          test_shrink_drops_load_first;
        Alcotest.test_case "load segment JSON and test skeleton" `Quick
          test_load_segment_json_and_skeleton;
        Alcotest.test_case "migration segment generated and deterministic"
          `Quick test_migration_segment_generated_and_runs;
        Alcotest.test_case "shrinker drops migrations first" `Quick
          test_shrink_drops_migrations_first;
        Alcotest.test_case "migration JSON and test skeleton" `Quick
          test_migration_json_and_skeleton;
        Alcotest.test_case "replicated failover case (election + replay)"
          `Quick test_repl_replay_failover_case;
        Alcotest.test_case "partition segment generated and deterministic"
          `Quick test_partition_segment_generated_and_runs;
        Alcotest.test_case "double failure generated and deterministic" `Quick
          test_double_failure_generated_and_runs;
        Alcotest.test_case "shrinker drops the double failure first" `Quick
          test_shrink_drops_double_failure_first;
        Alcotest.test_case "repl-era JSON and test skeleton" `Quick
          test_repl_era_json_and_skeleton;
        Alcotest.test_case "draw stream pinned across the retired batch draw"
          `Quick test_draw_stream_pinned;
      ] );
  ]
