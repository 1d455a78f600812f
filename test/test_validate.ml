(* The row validator behind `ccpfs_run validate`: every committed BENCH
   document satisfies its schema's invariants, and one mutated row per
   invariant is rejected. *)

open Obs

module V = Experiments.Validate

(* The committed documents are copied into the build root beside the
   test directory, so they are found from the binary, whatever the
   working directory: `dune exec test/test_main.exe -- test
   experiments.rows` works from the repository root. *)
let committed name =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Printf.sprintf "../BENCH_%s.json" name)

let load name =
  Json.parse_exn (In_channel.with_open_bin (committed name) In_channel.input_all)

let rows doc = Json.get_list (Option.get (Json.member "results" doc))

let with_rows doc rows =
  match doc with
  | Json.Obj kvs ->
      Json.Obj
        (List.map
           (fun (k, v) -> if k = "results" then (k, Json.List rows) else (k, v))
           kvs)
  | _ -> Alcotest.fail "not a document"

(* [set path v row]: replace the field at [path] (nested objects). *)
let rec set path v = function
  | Json.Obj kvs -> (
      match path with
      | [ k ] -> Json.Obj (List.map (fun (k', x) -> (k', if k' = k then v else x)) kvs)
      | k :: rest ->
          Json.Obj (List.map (fun (k', x) -> (k', if k' = k then set rest v x else x)) kvs)
      | [] -> Alcotest.fail "empty path")
  | _ -> Alcotest.fail "not an object"

let get row k = Option.get (Json.member k row)

(* Apply [f] to the rows satisfying [pick]. *)
let mutate doc ~pick f =
  with_rows doc (List.map (fun r -> if pick r then f r else r) (rows doc))

let first_row doc f =
  match rows doc with
  | r :: rest -> with_rows doc (f r :: rest)
  | [] -> Alcotest.fail "no rows"

let expect_ok ?pins what doc =
  match V.document ?pins doc with
  | Ok _ -> ()
  | Error errs -> Alcotest.failf "%s rejected: %s" what (String.concat "; " errs)

let contains ~sub s =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

(* Rejected, and for the stated reason: some error message mentions
   [because]. *)
let expect_rejected ?pins ~because what doc =
  match V.document ?pins doc with
  | Ok s -> Alcotest.failf "%s accepted: %s" what s
  | Error errs ->
      if not (List.exists (contains ~sub:because) errs) then
        Alcotest.failf "%s rejected for another reason: %s" what
          (String.concat "; " errs)

let test_committed_documents_validate () =
  List.iter
    (fun name -> expect_ok ("committed " ^ name) (load name))
    [ "experiments"; "scale"; "load"; "shard"; "repl" ]

let test_mutated_rows_rejected () =
  let str r k = Option.get (Json.get_string (get r k)) in
  let num r k = Option.get (Json.get_float (get r k)) in
  let experiments = load "experiments" in
  expect_rejected ~because:"bandwidth_Bps not positive" "zero bandwidth"
    (first_row experiments (set [ "bandwidth_Bps" ] (Json.Float 0.)));
  let scale = load "scale" in
  expect_rejected ~because:"percentiles not spread" "scale p50 = p99"
    (first_row scale (fun r -> set [ "write_lat_p99_s" ] (get r "write_lat_p50_s") r));
  expect_rejected ~because:"whole-file contention" "scale queue short of the convoy"
    (first_row scale (set [ "lock_stats"; "max_queue" ] (Json.Int 3)));
  expect_rejected ~because:"requests <> clients x writes_each" "scale requests <> clients x writes"
    (first_row scale (set [ "requests" ] (Json.Int 7)));
  let load_doc = load "load" in
  expect_rejected ~because:"achieved rate" "load achieved > offered"
    (first_row load_doc (fun r ->
         set [ "achieved_rate_rps" ] (Json.Float (2. *. num r "offered_rate_rps")) r));
  expect_rejected ~because:"completed + shed <> arrivals" "load completed + shed <> arrivals"
    (first_row load_doc (set [ "shed" ] (Json.Int 1)));
  expect_rejected ~because:"sojourn p99 above p999" "load p99 > p999"
    (first_row load_doc (fun r -> set [ "sojourn_p999_s" ] (get r "sojourn_p50_s") r));
  expect_rejected ~because:"exactly one knee" "load second knee"
    (first_row load_doc (fun r ->
         r |> set [ "knee" ] (Json.Bool true) |> set [ "violates" ] (Json.Bool true)));
  expect_rejected ~because:"offered rates not strictly ascending" "load rates out of order"
    (with_rows load_doc (List.rev (rows load_doc)));
  let shard = load "shard" in
  expect_rejected ~because:"does not rise" "shard rate falls with servers"
    (mutate shard
       ~pick:(fun r -> Json.get_int (get r "servers") = Some 8)
       (set [ "requests_per_sim_s" ] (Json.Float 1.)));
  expect_rejected ~because:"cannot migrate" "shard single server migrated"
    (first_row shard (set [ "migrations" ] (Json.Int 1)));
  expect_rejected ~because:"sharding gained only" "shard gain under 1.3x"
    (with_rows shard
       (List.filteri (fun i _ -> i < 2) (rows shard)
       |> List.map (fun r ->
              set [ "requests_per_sim_s" ]
                (Json.Float
                   (if Json.get_int (get r "servers") = Some 1 then 100. else 110.))
                r)));
  let repl = load "repl" in
  expect_rejected ~because:"lost grants" "repl lost grant"
    (first_row repl (set [ "lost_grants" ] (Json.Int 1)));
  expect_rejected ~because:"replay recovery not faster" "repl replay slower than gather"
    (mutate repl
       ~pick:(fun r -> str r "mode" = "replay" && str r "loop" = "open")
       (set [ "recovery_s" ] (Json.Float 0.0005)));
  expect_rejected ~because:"gather row carries replication facts" "repl gather row with an elected backup"
    (first_row repl (set [ "elected_backup" ] (Json.Int 0)));
  expect_rejected ~because:"outage cost no retries" "repl outage without retries"
    (first_row repl (set [ "retries" ] (Json.Int 0)));
  expect_rejected ~because:"throughput series must be" "repl throughput series short"
    (first_row repl (set [ "throughput_ops" ] (Json.List [ Json.Int 256 ])));
  expect_rejected ~because:"\"divergent_locks\"" "repl missing field"
    (first_row repl (function
      | Json.Obj kvs -> Json.Obj (List.remove_assoc "divergent_locks" kvs)
      | j -> j));
  (* micro-benchmark rows are not committed: a document in the shape
     bench/main.exe writes *)
  let micro_row (name, ns) =
    Json.Obj [ ("name", Json.Str name); ("ns_per_run", Json.Float ns) ]
  in
  let micro =
    Json.Obj
      [ ("schema", Json.Str "ccpfs.micro/1");
        ( "results",
          Json.List
            (List.map micro_row
               [ ("seqdlm-micro/engine: 1k processes x sleep", 1.3e6);
                 ("seqdlm-micro/rpc: bare call round trip, 1k callers", 1.5e7) ]) ) ]
  in
  expect_ok "micro rows" micro;
  expect_rejected ~because:"no estimate" "micro row written without an estimate"
    (first_row micro (set [ "ns_per_run" ] Json.Null));
  expect_rejected ~because:"not finite and positive" "micro zero estimate"
    (first_row micro (set [ "ns_per_run" ] (Json.Float 0.)));
  expect_rejected ~because:"empty benchmark name" "micro row without a name"
    (first_row micro (set [ "name" ] (Json.Str "")));
  expect_rejected ~because:"unknown schema" "unknown schema"
    (Json.Obj [ ("schema", Json.Str "ccpfs.nope/1"); ("results", Json.List []) ]);
  expect_rejected ~because:"no result rows" "empty results" (with_rows repl [])

let test_pins () =
  let scale = load "scale" in
  let pins = { V.no_pins with rows = Some 4 } in
  expect_ok ~pins "matching row pin" scale;
  expect_rejected ~pins:{ pins with rows = Some 2 } ~because:"expected 2 rows" "row count pin" scale;
  expect_rejected
    ~pins:{ pins with fields = [ ("clients", Json.Int 128) ] }
    ~because:"pinned 128" "field pin" scale;
  let load_doc = load "load" in
  expect_ok
    ~pins:{ V.no_pins with fields = [ ("process", Json.Str "poisson") ] }
    "string field pin" load_doc

let span ph name = Json.Obj [ ("name", Json.Str name); ("ph", Json.Str ph);
                              ("pid", Json.Int 1); ("tid", Json.Int 1) ]

let trace events = Json.Obj [ ("traceEvents", Json.List events) ]

let test_trace_spans () =
  let balanced = trace [ span "B" "a"; span "B" "b"; span "E" "b"; span "E" "a" ] in
  expect_ok "balanced spans" balanced;
  expect_ok ~pins:{ V.no_pins with events = [ "b" ] } "required event" balanced;
  expect_rejected ~pins:{ V.no_pins with events = [ "ha.detect" ] }
    ~because:"\"ha.detect\" event" "missing required event" balanced;
  expect_rejected ~because:"never closed" "unclosed span" (trace [ span "B" "a" ]);
  expect_rejected ~because:"unmatched end span" "crossed spans"
    (trace [ span "B" "a"; span "B" "b"; span "E" "a"; span "E" "b" ]);
  expect_rejected ~because:"unmatched end span" "end without begin" (trace [ span "E" "a" ]);
  expect_rejected ~because:"no events" "empty trace" (trace [])

let test_unused_pin_fails () =
  match V.files ~pins:{ V.no_pins with events = [ "x" ] } [ committed "scale" ] with
  | Ok _ -> Alcotest.fail "an event pin with no trace passed"
  | Error _ -> ()

let suite =
  [
    ( "experiments.rows",
      [
        Alcotest.test_case "committed BENCH documents validate" `Quick
          test_committed_documents_validate;
        Alcotest.test_case "one mutated row per invariant rejected" `Quick
          test_mutated_rows_rejected;
        Alcotest.test_case "configuration pins" `Quick test_pins;
        Alcotest.test_case "trace spans balanced, events present" `Quick
          test_trace_spans;
        Alcotest.test_case "a pin that matches no file fails" `Quick
          test_unused_pin_fails;
      ] );
  ]
