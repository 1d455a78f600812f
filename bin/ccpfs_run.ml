(* Command-line driver for the experiment reproductions:

     ccpfs_run list               enumerate experiments
     ccpfs_run run fig20          one experiment at its default scale
     ccpfs_run run fig20 -s 0.1   override the workload scale
     ccpfs_run all [-s SCALE]     the whole evaluation section
     ccpfs_run validate FILE...   check BENCH_*.json rows and traces

   CCPFS_CHECK=full runs any of them under the protocol sanitizer;
   README's Knobs table lists every environment knob. *)

open Cmdliner

let scale_arg =
  let doc =
    "Workload scale factor; 1.0 reproduces the paper's data volumes, the \
     defaults shrink them to laptop-friendly sizes with the same shapes."
  in
  Arg.(value & opt (some float) None & info [ "s"; "scale" ] ~docv:"SCALE" ~doc)

let trace_arg =
  let doc =
    "Also record every simulated run as Chrome trace_event JSON written \
     to $(docv) — RPC and I/O spans, lock lifecycle instants, per-waiter \
     lock-wait attribution.  Open the file in Perfetto \
     (https://ui.perfetto.dev) or chrome://tracing."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let apply_trace trace = Option.iter Obs.Hub.request_trace trace

(* Post-run flush of everything the observability layer collected:
   the combined Chrome trace (when [--trace] was given) and the
   machine-readable result rows the harness accumulated. *)
let finish_obs () =
  (match Obs.Hub.flush_trace () with
  | Some (path, n) -> Printf.printf "\ntrace: wrote %d events to %s\n" n path
  | None -> ());
  if Obs.Results.count () > 0 then begin
    let n =
      Experiments.Registry.write_results ~path:"BENCH_experiments.json"
    in
    Printf.printf "results: wrote %d rows to BENCH_experiments.json\n" n
  end

let list_cmd =
  let run () =
    List.iter
      (fun (e : Experiments.Registry.t) ->
        Printf.printf "%-8s (scale %-4g)  %s\n" e.id e.default_scale e.title;
        Printf.printf "%-8s               paper: %s\n" "" e.paper_claim)
      Experiments.Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List the reproduced tables and figures")
    Term.(const run $ const ())

let run_cmd =
  let id_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"EXPERIMENT")
  in
  let run id scale trace =
    apply_trace trace;
    match Experiments.Registry.find id with
    | Some e ->
        Experiments.Registry.run_one ?scale e;
        finish_obs ();
        `Ok ()
    | None ->
        `Error
          ( false,
            Printf.sprintf "unknown experiment %S; try `ccpfs_run list`" id )
  in
  Cmd.v (Cmd.info "run" ~doc:"Run one experiment")
    Term.(ret (const run $ id_arg $ scale_arg $ trace_arg))

(* A narrated protocol timeline: three clients contend for one stripe
   under a chosen policy, and every lock-server step is printed with its
   virtual timestamp — the fastest way to see early grant / early
   revocation / conversion actually happen. *)
let trace_cmd =
  let policy_arg =
    let doc = "DLM variant: seqdlm, basic, lustre or datatype." in
    Arg.(value & opt string "seqdlm" & info [ "p"; "policy" ] ~docv:"POLICY" ~doc)
  in
  let run policy_name trace =
    apply_trace trace;
    let policy =
      match policy_name with
      | "seqdlm" -> Some Seqdlm.Policy.seqdlm
      | "basic" -> Some Seqdlm.Policy.dlm_basic
      | "lustre" -> Some Seqdlm.Policy.dlm_lustre
      | "datatype" -> Some Seqdlm.Policy.dlm_datatype
      | _ -> None
    in
    match policy with
    | None -> `Error (false, "unknown policy " ^ policy_name)
    | Some policy ->
        let cl = Ccpfs.Cluster.create ~policy ~n_servers:1 ~n_clients:3 () in
        (match Obs.Hub.new_sink ~label:("trace:" ^ policy.Seqdlm.Policy.name) ()
         with
        | Some sink ->
            Dessim.Engine.set_trace_sink (Ccpfs.Cluster.engine cl) sink
        | None -> ());
        Seqdlm.Lock_server.add_tracer (Ccpfs.Cluster.lock_server cl 0)
          (fun now ev ->
            Format.printf "%10.1fus  %a@." (now *. 1e6)
              Seqdlm.Lock_server.pp_trace_event ev);
        Format.printf "# three clients, two conflicting writes each, then a read (%s)@."
          policy.Seqdlm.Policy.name;
        for i = 0 to 2 do
          Ccpfs.Cluster.spawn_client cl i ~name:(Printf.sprintf "c%d" i)
            (fun c ->
              let f = Ccpfs.Client.open_file c ~create:true "/traced" in
              for _ = 1 to 2 do
                Ccpfs.Client.write c f ~off:0 ~len:65536
              done;
              if i = 0 then ignore (Ccpfs.Client.read c f ~off:0 ~len:65536))
        done;
        Ccpfs.Cluster.run cl;
        finish_obs ();
        `Ok ()
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Print a narrated lock-protocol timeline for a tiny scenario")
    Term.(ret (const run $ policy_arg $ trace_arg))

let all_cmd =
  let run scale trace =
    apply_trace trace;
    Experiments.Registry.run_all ?scale ();
    finish_obs ()
  in
  Cmd.v (Cmd.info "all" ~doc:"Run every experiment")
    Term.(const run $ scale_arg $ trace_arg)

(* Model-checking lite: replay a three-client write-contention scenario
   under every same-timestamp tie-break ordering the event heap allows,
   asserting the protocol invariants after each schedule. *)
let explore_cmd =
  let max_arg =
    let doc = "Bound on the number of schedules to explore." in
    Arg.(value & opt int 10_000 & info [ "m"; "max-schedules" ] ~docv:"N" ~doc)
  in
  let run max_schedules =
    match Check.Scenarios.explore_contention ~max_schedules () with
    | r ->
        Format.printf
          "three-client NBW contention, all 6 arrival orders: %a, every \
           schedule invariant-clean@."
          Check.Explore.pp_result r;
        if r.Check.Explore.complete then `Ok ()
        else `Error (false, "schedule bound hit; raise --max-schedules")
    | exception (Check.Explore.Schedule_failed _ as e) ->
        `Error (false, Printexc.to_string e)
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Exhaustively model-check a small contention scenario over all \
          event-tie orderings")
    Term.(ret (const run $ max_arg))

(* Deterministic simulation fuzzing: randomized cluster runs (seeded
   configs, workloads and fault schedules) under the shadow-file and
   analytic oracles, with greedy shrinking of any failure into a
   replayable reproducer. *)
let fuzz_cmd =
  let count_arg =
    let doc = "Number of consecutive seeds to run." in
    Arg.(value & opt (some int) None & info [ "n"; "count" ] ~docv:"N" ~doc)
  in
  let seed_arg =
    let doc =
      "Base seed (default: \\$(b,CCPFS_SEED) or the built-in default).  \
       With no $(b,--count), runs exactly this one seed — how a failure \
       printed by CI is replayed."
    in
    Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let shrink_arg =
    let doc = "Re-run budget of the greedy minimizer applied to a failure." in
    Arg.(value & opt int 150 & info [ "shrink" ] ~docv:"BUDGET" ~doc)
  in
  let inject_arg =
    let doc =
      "Plant a deliberate bug to prove the oracles bite: $(b,sn-reuse) \
       (lock servers reissue an old sequence number) or $(b,drop-block) \
       (data servers silently drop flushed blocks)."
    in
    Arg.(value & opt (some string) None & info [ "inject" ] ~docv:"BUG" ~doc)
  in
  let faults_arg =
    let doc =
      "Force online fault schedules: every case gets nonzero message \
       loss/duplication on the fenced transport plus at least one \
       mid-phase lock-server crash, recovered live by the lib/ha \
       failover layer while client requests are in flight."
    in
    Arg.(value & flag & info [ "faults" ] ~doc)
  in
  let describe_arg =
    let doc =
      "Print the generated case summary for each seed in the range \
       without executing anything — how CI pins seeds that carry a \
       particular segment (replication, partitions, double failures)."
    in
    Arg.(value & flag & info [ "describe" ] ~doc)
  in
  let run count seed shrink inject_name faults describe =
    let inject =
      match inject_name with
      | None -> Ok None
      | Some s -> (
          match Fuzz.Exec.inject_of_string s with
          | Some i -> Ok (Some i)
          | None -> Error (Printf.sprintf "unknown --inject %S" s))
    in
    match inject with
    | Error e -> `Error (false, e)
    | Ok inject ->
        let base = match seed with Some s -> s | None -> Fuzz.Seed.base () in
        let count =
          match (count, seed) with
          | Some n, _ -> n
          | None, Some _ -> 1
          | None, None -> 100
        in
        if describe then begin
          for s = base to base + count - 1 do
            print_endline (Fuzz.Case.summary (Fuzz.Gen.of_seed ~faults s))
          done;
          `Ok ()
        end
        else
        let progress k total =
          if k mod 25 = 0 || k = total then
            Printf.printf "fuzz: %d/%d seeds ok\n%!" k total
        in
        Printf.printf "fuzz: seeds %d..%d%s%s\n%!" base
          (base + count - 1)
          (match inject with
          | Some i -> " (injecting " ^ Fuzz.Exec.inject_to_string i ^ ")"
          | None -> "")
          (if faults then " (forced online faults)" else "");
        let summary =
          Fuzz.Driver.run_range ?inject ~faults ~shrink_budget:shrink
            ~progress ~base ~count ()
        in
        Obs.Results.add (Fuzz.Driver.result_row ?inject ~faults ~base summary);
        ignore
          (Obs.Results.write ~schema:"ccpfs.fuzz/1" ~path:"BENCH_fuzz.json" ());
        print_endline "results: wrote BENCH_fuzz.json";
        (match summary.failure with
        | None ->
            Printf.printf
              "fuzz: %d case(s) passed (%d simulated, %d analytic), all \
               oracles clean\n"
              summary.tested summary.sims summary.analytics;
            `Ok ()
        | Some f ->
            Printf.printf "\nfuzz: FAILURE at seed %d\n  %s\n" f.seed f.reason;
            Printf.printf "replay: %s\n" (Fuzz.Driver.repro_hint f);
            Format.printf "minimized (%d rerun(s)): %s@.%a@."
              f.shrink_reruns f.shrunk_reason Fuzz.Case.pp f.shrunk;
            Obs.Json.to_file "FUZZ_repro.json" (Fuzz.Driver.repro_json f);
            Printf.printf
              "wrote FUZZ_repro.json (minimized case + OCaml test skeleton)\n";
            `Error (false, "fuzz failure"))
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Fuzz the simulated cluster: randomized configs, workloads and \
          fault schedules under determinism, invariant, shadow-file and \
          analytic oracles")
    Term.(
      ret (const run $ count_arg $ seed_arg $ shrink_arg $ inject_arg
           $ faults_arg $ describe_arg))

(* Machine-check result documents and traces: the per-schema invariants
   plus any pins of the run configuration that produced them. *)
let validate_cmd =
  let files_arg =
    Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE")
  in
  let rows_arg =
    let doc = "Require exactly $(docv) result rows." in
    Arg.(value & opt (some int) None & info [ "rows" ] ~docv:"N" ~doc)
  in
  let field_arg =
    let doc =
      "Require every result row's field $(i,KEY) to equal $(i,VALUE) (a \
       JSON scalar; bare words are strings).  Repeatable."
    in
    Arg.(value & opt_all (pair ~sep:'=' string string) []
         & info [ "field" ] ~docv:"KEY=VALUE" ~doc)
  in
  let event_arg =
    let doc = "Require a trace event named $(docv).  Repeatable." in
    Arg.(value & opt_all string [] & info [ "event" ] ~docv:"NAME" ~doc)
  in
  let run files rows fields events =
    let scalar v =
      match Obs.Json.parse v with
      | Ok (Obs.Json.(Int _ | Float _ | Bool _ | Null) as j) -> j
      | Ok _ | Error _ -> Obs.Json.Str v
    in
    let pins =
      Experiments.Validate.
        {
          rows;
          fields = List.map (fun (k, v) -> (k, scalar v)) fields;
          events;
        }
    in
    match Experiments.Validate.files ~pins files with
    | Ok lines ->
        List.iter (fun l -> print_endline ("ok: " ^ l)) lines;
        `Ok ()
    | Error errs ->
        List.iter prerr_endline errs;
        `Error (false, Printf.sprintf "%d invariant(s) violated" (List.length errs))
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:
         "Check BENCH_*.json documents and Chrome traces against their \
          schema invariants and the given pins")
    Term.(
      ret (const run $ files_arg $ rows_arg $ field_arg $ event_arg))

let () =
  let info =
    Cmd.info "ccpfs_run" ~version:"1.0.0"
      ~doc:"Reproduce the SeqDLM / ccPFS evaluation (SC '22)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; run_cmd; all_cmd; trace_cmd; explore_cmd; fuzz_cmd;
            validate_cmd ]))
