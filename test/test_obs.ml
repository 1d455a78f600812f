(* Tests for the observability layer (lib/obs): histogram bucketing,
   span collection, JSON round-trips, the hub's trace plumbing, and a
   golden end-to-end check that a traced cluster run exports valid
   Chrome trace_event JSON with matched begin/end pairs whose lock-wait
   totals agree with the lock-server statistics. *)

open Obs

let feq = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let test_hist_bucketing () =
  let reg = Metrics.create () in
  Metrics.enable reg;
  let h = Metrics.histogram reg "lat" in
  List.iter (Metrics.observe h) [ 1.0; 1.5; 3.0; 0.6; 0.0; -2.0 ];
  Alcotest.(check int) "count" 6 (Metrics.hist_count h);
  feq "sum keeps raw values" 4.1 (Metrics.hist_sum h);
  let lowest = Float.ldexp 1. (-64) in
  Alcotest.(check (list (pair (float 1e-30) int)))
    "power-of-two buckets, ascending"
    [ (lowest, 2); (1.0, 1); (2.0, 2); (4.0, 1) ]
    (Metrics.hist_buckets h);
  (* Two lookups of one name share the instrument. *)
  Metrics.observe (Metrics.histogram reg "lat") 1.2;
  Alcotest.(check int) "same instrument" 7 (Metrics.hist_count h)

(* hist_quantile: nearest-rank over the cumulative bucket counts,
   reported as the holding bucket's upper bound. *)
let test_hist_quantile () =
  let reg = Metrics.create () in
  Metrics.enable reg;
  let h = Metrics.histogram reg "q" in
  feq "empty histogram" 0. (Metrics.hist_quantile h 50.);
  (* 90 samples in the (0.5, 1] bucket, 9 in (1, 2], 1 in (2, 4]:
     ranks 1-90 resolve to 1.0, 91-99 to 2.0, 100 to 4.0 *)
  for _ = 1 to 90 do Metrics.observe h 0.9 done;
  for _ = 1 to 9 do Metrics.observe h 1.5 done;
  Metrics.observe h 3.0;
  feq "p50 in the bulk bucket" 1.0 (Metrics.hist_quantile h 50.);
  feq "p90 is the bulk's last rank" 1.0 (Metrics.hist_quantile h 90.);
  feq "p91 crosses into the tail" 2.0 (Metrics.hist_quantile h 91.);
  feq "p99 in the tail bucket" 2.0 (Metrics.hist_quantile h 99.);
  feq "p99.9 rounds up to the max bucket" 4.0 (Metrics.hist_quantile h 99.9);
  feq "p100 is the max bucket" 4.0 (Metrics.hist_quantile h 100.);
  feq "p0 clamps to rank 1" 1.0 (Metrics.hist_quantile h 0.);
  feq "p<0 clamps" 1.0 (Metrics.hist_quantile h (-3.));
  feq "p>100 clamps" 4.0 (Metrics.hist_quantile h 200.)

(* Differential check against the exact order statistic: on retained
   samples, Stats.percentile and hist_quantile must agree up to one
   power-of-two bucket (the histogram's stated resolution). *)
let prop_hist_quantile_vs_stats =
  let open QCheck in
  Test.make ~name:"hist_quantile brackets Stats.percentile" ~count:200
    (make
       ~print:Print.(pair (list float) (list int))
       Gen.(pair
              (list_size (int_range 1 60) (float_range 1e-6 1e6))
              (list_size (int_range 1 8) (int_bound 1000))))
    (fun (xs, ps) ->
      let reg = Metrics.create () in
      Metrics.enable reg;
      let h = Metrics.histogram reg "d" in
      let s = Ccpfs_util.Stats.create () in
      List.iter
        (fun x ->
          Metrics.observe h x;
          Ccpfs_util.Stats.add s x)
        xs;
      List.for_all
        (fun pm ->
          let p = float_of_int pm /. 10. in
          let exact = Ccpfs_util.Stats.percentile s p in
          let bucket = Metrics.hist_quantile h p in
          (* the exact sample lies in the bucket: [bucket/2, bucket) *)
          exact < bucket && exact >= bucket /. 2.)
        ps)

let test_metrics_disabled_noop () =
  let reg = Metrics.create () in
  Alcotest.(check bool) "starts disabled" false (Metrics.is_enabled reg);
  let h = Metrics.histogram reg "h" in
  let c = Metrics.counter reg "c" in
  let g = Metrics.gauge reg "g" in
  Metrics.observe h 1.0;
  Metrics.incr c;
  Metrics.set_gauge g 5.0;
  Alcotest.(check int) "histogram untouched" 0 (Metrics.hist_count h);
  Alcotest.(check int) "counter untouched" 0 (Metrics.counter_value c);
  feq "gauge untouched" 0. (Metrics.gauge_value g);
  Metrics.enable reg;
  Metrics.incr c;
  Alcotest.(check int) "counts once enabled" 1 (Metrics.counter_value c)

(* Buckets are allocated at a histogram's first observation; one that
   was never observed must read exactly like an empty allocated one,
   before and after [enable], and in the JSON snapshot. *)
let test_unobserved_histogram () =
  let reg = Metrics.create () in
  let h = Metrics.histogram reg "idle" in
  let reads phase =
    Alcotest.(check (list (pair (float 0.) int)))
      (phase ^ ": no buckets") [] (Metrics.hist_buckets h);
    feq (phase ^ ": p50 of nothing") 0. (Metrics.hist_quantile h 50.);
    feq (phase ^ ": p100 of nothing") 0. (Metrics.hist_quantile h 100.);
    Alcotest.(check int) (phase ^ ": count") 0 (Metrics.hist_count h)
  in
  reads "disabled";
  Metrics.observe h 1.0;
  reads "observed while disabled";
  Metrics.enable reg;
  reads "enabled";
  let buckets =
    Option.bind (Json.member "histograms" (Metrics.to_json reg)) (fun hs ->
        Option.bind (Json.member "idle" hs) (Json.member "buckets"))
  in
  Alcotest.(check bool) "snapshot lists no buckets" true
    (buckets = Some (Json.List []));
  Metrics.observe h 3.0;
  Alcotest.(check (list (pair (float 0.) int)))
    "first observation lands" [ (4.0, 1) ] (Metrics.hist_buckets h);
  feq "quantile after it" 4.0 (Metrics.hist_quantile h 50.)

let test_metrics_json_snapshot () =
  let reg = Metrics.create () in
  Metrics.enable reg;
  Metrics.add (Metrics.counter reg "rpc.calls") 3;
  Metrics.observe (Metrics.histogram reg "lat") 0.5;
  let j = Metrics.to_json reg in
  let counter =
    Option.bind (Json.member "counters" j) (Json.member "rpc.calls")
  in
  Alcotest.(check (option int)) "counter value" (Some 3)
    (Option.bind counter Json.get_int);
  let count =
    Option.bind (Json.member "histograms" j) (fun h ->
        Option.bind (Json.member "lat" h) (Json.member "count"))
  in
  Alcotest.(check (option int)) "hist count" (Some 1)
    (Option.bind count Json.get_int)

(* ------------------------------------------------------------------ *)
(* Trace sinks                                                         *)
(* ------------------------------------------------------------------ *)

let test_null_sink_noop () =
  Alcotest.(check bool) "null disabled" false (Trace.enabled Trace.null);
  Trace.begin_span Trace.null ~ts:0. ~tid:1 "x";
  Trace.end_span Trace.null ~ts:1. ~tid:1 "x";
  Trace.complete Trace.null ~ts:0. ~dur:1. ~tid:1 "y";
  Trace.instant Trace.null ~ts:0. ~tid:1 "z";
  Alcotest.(check int) "nothing collected" 0 (Trace.num_events Trace.null)

let test_span_collection () =
  let s = Trace.make ~pid:7 ~label:"run" () in
  Alcotest.(check bool) "collecting sink enabled" true (Trace.enabled s);
  Trace.begin_span s ~ts:0.1 ~tid:3 ~cat:"io" "outer";
  Trace.begin_span s ~ts:0.2 ~tid:3 "inner";
  Trace.end_span s ~ts:0.3 ~tid:3 "inner";
  Trace.end_span s ~ts:0.4 ~tid:3 "outer";
  Trace.instant s ~ts:0.5 ~tid:3 "tick";
  let evs = Trace.events s in
  Alcotest.(check int) "five events" 5 (List.length evs);
  Alcotest.(check (list string))
    "emission order preserved"
    [ "outer"; "inner"; "inner"; "outer"; "tick" ]
    (List.map (fun (e : Trace.ev) -> e.name) evs);
  Alcotest.(check (list char))
    "phases" [ 'B'; 'B'; 'E'; 'E'; 'i' ]
    (List.map (fun (e : Trace.ev) -> e.ph) evs)

(* Check B/E nesting per (pid, tid) with the row validator's trace
   check; returns the number of events seen. *)
let check_matched_spans json =
  match Experiments.Validate.document json with
  | Ok _ -> List.length (Json.get_list (Option.get (Json.member "traceEvents" json)))
  | Error errs -> Alcotest.fail (String.concat "; " errs)

let test_trace_json_shape () =
  let s = Trace.make ~pid:2 ~label:"demo" () in
  Trace.begin_span s ~ts:1e-6 ~tid:1 ~cat:"rpc"
    ~args:[ ("bytes", Json.Int 42) ] "call";
  Trace.end_span s ~ts:2e-6 ~tid:1 "call";
  let j = Trace.to_json [ s ] in
  Alcotest.(check (option string))
    "time unit" (Some "ms")
    (Option.bind (Json.member "displayTimeUnit" j) Json.get_string);
  (* 2 span events + 1 process_name metadata record for the label. *)
  Alcotest.(check int) "events incl. metadata" 3 (check_matched_spans j);
  (* Round-trip through the serializer and parser. *)
  let j' = Json.parse_exn (Json.to_string j) in
  Alcotest.(check int) "survives round-trip" 3 (check_matched_spans j')

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("s", Json.Str "a\"b\\c\ntab\t");
        ("i", Json.Int (-42));
        ("f", Json.Float 1.5);
        ("l", Json.List [ Json.Null; Json.Bool true; Json.Bool false ]);
        ("o", Json.Obj [ ("nested", Json.Int 1) ]);
      ]
  in
  let v' = Json.parse_exn (Json.to_string v) in
  Alcotest.(check string) "identical after round-trip" (Json.to_string v)
    (Json.to_string v');
  (match Json.parse "{\"a\":1} trailing" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing garbage must not parse");
  match Json.parse "{\"a\":" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated document must not parse"

(* Parser error paths: every rejection must be an [Error], never an
   exception or a silently wrong value. *)
let test_json_error_paths () =
  let rejects label input =
    match Json.parse input with
    | Error _ -> ()
    | Ok v ->
        Alcotest.fail
          (Printf.sprintf "%s: %S parsed to %s" label input (Json.to_string v))
  in
  rejects "empty input" "";
  rejects "truncated object" "{\"a\": {\"b\": 1";
  rejects "truncated list" "[1, 2,";
  rejects "truncated string" "\"abc";
  rejects "truncated literal" "tru";
  rejects "truncated unicode escape" "\"\\u00";
  rejects "short unicode escape" "\"\\u12\"";
  rejects "bad escape" "\"\\q\"";
  rejects "bare control char in string" "\"a\nb\"";
  rejects "lone minus" "-";
  rejects "missing colon" "{\"a\" 1}";
  rejects "missing comma" "[1 2]";
  rejects "duplicate object keys" "{\"a\": 1, \"a\": 2}";
  (* The accepted forms next door must stay accepted. *)
  (match Json.parse "{\"a\": 1, \"b\": 2}" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("distinct keys must parse: " ^ e));
  (match Json.parse "\"\\u0041\\\\\\n\"" with
  | Ok (Json.Str "A\\\n") -> ()
  | Ok v -> Alcotest.fail ("escapes decoded wrong: " ^ Json.to_string v)
  | Error e -> Alcotest.fail ("valid escapes must parse: " ^ e));
  (* The dedicated exception pinpoints the failing byte and excerpts the
     input around it. *)
  (match Json.parse_exn "[1, 2, x]" with
  | v -> Alcotest.fail ("bogus list parsed to " ^ Json.to_string v)
  | exception Json.Parse_error { offset; message; context } ->
      Alcotest.(check int) "failure offset" 7 offset;
      Alcotest.(check string) "failure message" "unexpected 'x'" message;
      Alcotest.(check string) "marked excerpt" "[1, 2, <HERE>x]" context);
  match Json.parse "[1, 2, x]" with
  | Ok v -> Alcotest.fail ("bogus list parsed to " ^ Json.to_string v)
  | Error e ->
      Alcotest.(check string)
        "Error string renders offset and excerpt"
        "Json.parse: at byte 7: unexpected 'x' (near [1, 2, <HERE>x])" e

(* ------------------------------------------------------------------ *)
(* Hub                                                                 *)
(* ------------------------------------------------------------------ *)

let test_hub_plumbing () =
  Hub.reset ();
  Alcotest.(check bool) "off by default" false (Hub.trace_requested ());
  Alcotest.(check bool) "no sink when off" true (Hub.new_sink () = None);
  let path = Filename.temp_file "ccpfs_trace" ".json" in
  Hub.request_trace path;
  Hub.set_run_info ~experiment:"figX" ~scale:0.5;
  Alcotest.(check string) "experiment stamped" "figX" (Hub.experiment ());
  feq "scale stamped" 0.5 (Hub.scale ());
  Alcotest.(check int) "run ids count up" 0 (Hub.next_run_id ());
  Alcotest.(check int) "run ids count up" 1 (Hub.next_run_id ());
  (match Hub.new_sink () with
  | None -> Alcotest.fail "expected a sink once requested"
  | Some s ->
      Alcotest.(check string) "default label" "figX#2" (Trace.label s);
      Trace.begin_span s ~ts:0. ~tid:1 "work";
      Trace.end_span s ~ts:1. ~tid:1 "work");
  (match Hub.flush_trace () with
  | None -> Alcotest.fail "expected a flushed trace"
  | Some (p, n) ->
      Alcotest.(check string) "written to the requested path" path p;
      Alcotest.(check int) "both events" 2 n;
      let j = Json.parse_exn (In_channel.with_open_text p In_channel.input_all) in
      (* 2 spans + process_name metadata. *)
      Alcotest.(check int) "file parses, spans matched" 3
        (check_matched_spans j));
  Sys.remove path;
  Hub.reset ()

(* ------------------------------------------------------------------ *)
(* Golden: a traced cluster run                                        *)
(* ------------------------------------------------------------------ *)

let test_cluster_trace_golden () =
  (* Two clients fight over one stripe so revocation and release waits
     both occur; the exported trace must parse, nest, and attribute the
     same wait totals as the lock-server statistics. *)
  let cl = Ccpfs.Cluster.create ~n_servers:1 ~n_clients:2 () in
  let sink = Trace.make ~pid:1 ~label:"golden" () in
  Dessim.Engine.set_trace_sink (Ccpfs.Cluster.engine cl) sink;
  for i = 0 to 1 do
    Ccpfs.Cluster.spawn_client cl i ~name:(Printf.sprintf "w%d" i) (fun c ->
        let f = Ccpfs.Client.open_file c ~create:true "/contend" in
        (* PW forbids early grant, so both wait terms are exercised. *)
        for _ = 1 to 4 do
          Ccpfs.Client.write c f ~mode:Seqdlm.Mode.PW ~off:0 ~len:65536
        done)
  done;
  Ccpfs.Cluster.run cl;
  Ccpfs.Cluster.fsync_all cl;
  let j = Json.parse_exn (Json.to_string (Trace.to_json [ sink ])) in
  let n = check_matched_spans j in
  Alcotest.(check bool) "a real trace" true (n > 20);
  (* Sum the lock-wait attribution spans (ph X, µs) per wait kind. *)
  let rev = ref 0. and rel = ref 0. in
  List.iter
    (fun e ->
      match
        ( Option.bind (Json.member "ph" e) Json.get_string,
          Option.bind (Json.member "name" e) Json.get_string,
          Option.bind (Json.member "dur" e) Json.get_float )
      with
      | Some "X", Some "lock.wait.revocation", Some d -> rev := !rev +. d
      | Some "X", Some "lock.wait.release", Some d -> rel := !rel +. d
      | _ -> ())
    (Json.get_list (Option.get (Json.member "traceEvents" j)));
  let stats = Ccpfs.Cluster.sum_lock_stats cl in
  Alcotest.(check (float 1e-6))
    "revocation wait agrees with stats" stats.Seqdlm.Lock_server.revocation_wait
    (!rev /. 1e6);
  Alcotest.(check (float 1e-6))
    "release wait agrees with stats" stats.Seqdlm.Lock_server.release_wait
    (!rel /. 1e6);
  Alcotest.(check bool) "waits actually happened" true (!rel > 0.)

let suite =
  [
    ( "obs",
      [
        Alcotest.test_case "histogram bucketing" `Quick test_hist_bucketing;
        Alcotest.test_case "histogram quantiles" `Quick test_hist_quantile;
        QCheck_alcotest.to_alcotest ~rand:(Fuzz.Seed.rand_state ())
          prop_hist_quantile_vs_stats;
        Alcotest.test_case "disabled metrics are no-ops" `Quick
          test_metrics_disabled_noop;
        Alcotest.test_case "unobserved histogram reads empty" `Quick
          test_unobserved_histogram;
        Alcotest.test_case "metrics JSON snapshot" `Quick
          test_metrics_json_snapshot;
        Alcotest.test_case "null sink is a no-op" `Quick test_null_sink_noop;
        Alcotest.test_case "span collection order" `Quick test_span_collection;
        Alcotest.test_case "trace JSON shape" `Quick test_trace_json_shape;
        Alcotest.test_case "JSON round-trip + strictness" `Quick
          test_json_roundtrip;
        Alcotest.test_case "JSON parser error paths" `Quick
          test_json_error_paths;
        Alcotest.test_case "hub plumbing" `Quick test_hub_plumbing;
        Alcotest.test_case "golden traced cluster run" `Quick
          test_cluster_trace_golden;
      ] );
  ]
