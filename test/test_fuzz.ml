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
    Fuzz.Driver.run_range ~inject:Fuzz.Exec.Drop_block ~base ~count:200 ()
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

(* ---- segment kinds ---- *)

let carries k c = Fuzz.Case.count (Fuzz.Segment.is k) c > 0

let without k (c : Fuzz.Case.t) =
  match c.kind with
  | Fuzz.Case.Sim s ->
      let segments = List.filter (fun g -> not (Fuzz.Segment.is k g)) s.segments in
      { c with kind = Fuzz.Case.Sim { s with segments } }
  | Fuzz.Case.Analytic _ -> c

(* Kinds drawn after [k]: the shrinker sheds those first. *)
let newer k =
  let rec after = function
    | [] -> []
    | k' :: rest -> if k' = k then rest else after rest
  in
  after Fuzz.Segment.kinds

(* Every kind is drawn by the generator, and the first case where it
   takes effect runs oracle-clean and deterministically (Exec
   double-runs internally; this also checks reproducibility across
   invocations). *)
let test_generated_and_deterministic live () =
  let case = first_case live base in
  let o1 = Fuzz.Exec.run case and o2 = Fuzz.Exec.run case in
  Alcotest.(check bool) "simulated time advanced" true (o1.virtual_end > 0.);
  Alcotest.(check int64) "identical fingerprints" o1.fingerprint o2.fingerprint

(* The shrinker's first candidate for a case whose newest kind is [k]
   drops every segment of that kind and changes nothing else, so a
   failure minimizes back to the older kinds first. *)
let test_shrink_drops_first k () =
  let case =
    first_case
      (fun c -> carries k c && not (List.exists (fun k' -> carries k' c) (newer k)))
      base
  in
  match Fuzz.Shrink.candidates case with
  | [] -> Alcotest.fail "no candidates"
  | first :: _ ->
      Alcotest.(check bool) "first candidate is the case without the kind" true
        (first = without k case)

(* The case JSON lists the segment under its kind name, and the test
   skeleton of the first seed from 24301 carrying it (compiled into
   this runner as Fuzz_skeletons) rebuilds the generated case exactly
   and replays it. *)
let check_skeleton label =
  let _, seed, literal, replay =
    List.find (fun (l, _, _, _) -> l = label) Fuzz_skeletons.cases
  in
  Alcotest.(check bool)
    (Printf.sprintf "skeleton of seed %d is the generated case" seed)
    true
    (literal = Fuzz.Gen.of_seed seed);
  replay ()

let test_json_and_skeleton k () =
  let case = first_case (carries k) base in
  let name = Fuzz.Segment.kind_name k in
  (match Obs.Json.parse (Obs.Json.to_string (Fuzz.Case.to_json case)) with
  | Error e -> Alcotest.fail e
  | Ok doc ->
      let kinds =
        Option.bind (Obs.Json.member "case" doc) (Obs.Json.member "segments")
        |> Option.map Obs.Json.get_list
        |> Option.value ~default:[]
        |> List.filter_map (fun g ->
               Option.bind (Obs.Json.member "kind" g) Obs.Json.get_string)
      in
      Alcotest.(check bool) ("JSON lists a " ^ name) true (List.mem name kinds));
  check_skeleton name

let mid_crashes =
  Fuzz.Case.count (function
    | Fuzz.Segment.Phase p -> Option.is_some p.crash_mid
    | _ -> false)

let shape_has p (c : Fuzz.Case.t) =
  match c.kind with Fuzz.Case.Sim s -> p s.shape | Fuzz.Case.Analytic _ -> false

(* A double failure takes effect only when a second server can die
   inside a mid-crash's failover window. *)
let armed c =
  carries `Double_failure c && mid_crashes c > 0
  && shape_has (fun s -> s.n_servers > 1) c

let kind_table =
  [
    (`Phase, "phase segment", carries `Phase);
    (`Load, "load segment", carries `Load);
    (`Migration, "migration segment", carries `Migration);
    (`Partition, "partition segment", carries `Partition);
    (`Double_failure, "double failure", armed);
  ]

let kind_tests =
  List.concat_map
    (fun (k, label, live) ->
      [
        Alcotest.test_case (label ^ " generated and deterministic") `Quick
          (test_generated_and_deterministic live);
        Alcotest.test_case
          (Printf.sprintf "shrinker drops the %s first" label)
          `Quick (test_shrink_drops_first k);
        Alcotest.test_case (label ^ " JSON and test skeleton") `Quick
          (test_json_and_skeleton k);
      ])
    kind_table

(* Tail-draw stability: deleting the load segment from a case must not
   change anything the earlier draws produced — i.e. the segment is
   purely additive on the generated shape. *)
let test_load_segment_tail_positioned () =
  let case = first_case (carries `Load) base in
  let stripped = without `Load case in
  ignore (Fuzz.Exec.run stripped);
  let sum = Fuzz.Case.summary case and sum' = Fuzz.Case.summary stripped in
  Alcotest.(check bool) "stripped summary is a prefix" true
    (String.length sum > String.length sum'
    && String.sub sum 0 (String.length sum') = sum')

(* A replicated case with a mid-phase crash recovers through election +
   grant-log replay instead of the client gather — under the shadow
   oracle, the repl invariant sweep and the determinism double-run. *)
let test_repl_replay_failover_case () =
  let case =
    first_case
      (fun c -> mid_crashes c > 0 && shape_has (fun s -> s.repl > 0) c)
      base
  in
  let o = Fuzz.Exec.run case in
  let o2 = Fuzz.Exec.run case in
  Alcotest.(check int64) "replicated failover case is deterministic"
    o.fingerprint o2.fingerprint

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

let test_case_json_keeps_seed () =
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
        Alcotest.test_case "case JSON parses and keeps the seed" `Quick
          test_case_json_keeps_seed;
        Alcotest.test_case "load draw is tail-positioned" `Quick
          test_load_segment_tail_positioned;
        Alcotest.test_case "replicated failover case (election + replay)"
          `Quick test_repl_replay_failover_case;
        Alcotest.test_case "draw stream pinned across the retired batch draw"
          `Quick test_draw_stream_pinned;
        Alcotest.test_case "analytic test skeleton compiles and replays"
          `Quick (fun () -> check_skeleton "analytic");
      ]
      @ kind_tests );
  ]
