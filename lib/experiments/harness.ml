open Ccpfs_util
open Ccpfs

type result = {
  pio : float;
  f : float;
  bytes : int;
  bandwidth : float;
  locking : float;
  cache_io : float;
  lock_stats : Seqdlm.Lock_server.stats;
  ops : int;
}

let collect cl ~pio ~f =
  let bytes = Cluster.total_bytes_written cl in
  {
    pio;
    f;
    bytes;
    bandwidth = (if pio > 0. then float_of_int bytes /. pio else 0.);
    locking = Cluster.total_locking_seconds cl;
    cache_io = Cluster.total_cache_seconds cl;
    lock_stats = Cluster.sum_lock_stats cl;
    ops =
      (let n = ref 0 in
       for i = 0 to Cluster.n_clients cl - 1 do
         n := !n + Client.ops (Cluster.client cl i)
       done;
       !n);
  }

type spawn = int -> string -> (Client.t -> unit) -> unit

let lock_stats_json (s : Seqdlm.Lock_server.stats) =
  Obs.Json.(
    Obj
      [
        ("grants", Int s.grants);
        ("early_grants", Int s.early_grants);
        ("early_revocations", Int s.early_revocations);
        ("revokes_sent", Int s.revokes_sent);
        ("upgrades", Int s.upgrades);
        ("downgrades", Int s.downgrades);
        ("releases", Int s.releases);
        ("expansions", Int s.expansions);
        ("revocation_wait_s", Float s.revocation_wait);
        ("release_wait_s", Float s.release_wait);
        ("max_queue", Int s.max_queue);
      ])

(* One machine-readable row per measured run (BENCH_experiments.json);
   the experiment id / scale were stamped on Obs.Hub by the driver. *)
let result_row cl ~run_id ~servers ~clients r =
  let open Obs.Json in
  Obj
    [
      ("experiment", Str (Obs.Hub.experiment ()));
      ("scale", Float (Obs.Hub.scale ()));
      ("run", Int run_id);
      ("servers", Int servers);
      ("clients", Int clients);
      ("pio_s", Float r.pio);
      ("f_s", Float r.f);
      ("bytes", Int r.bytes);
      ("bandwidth_Bps", Float r.bandwidth);
      ("locking_s", Float r.locking);
      ("cache_io_s", Float r.cache_io);
      ("ops", Int r.ops);
      ("lock_stats", lock_stats_json r.lock_stats);
      ("metrics", Obs.Metrics.to_json (Dessim.Engine.metrics (Cluster.engine cl)));
    ]

let run ~name create launch =
  let checked = Check.Sanitize.enabled () in
  let pass () =
    let cl = create () in
    (match Obs.Hub.new_sink () with
    | Some sink -> Dessim.Engine.set_trace_sink (Cluster.engine cl) sink
    | None -> ());
    if checked then Check.Sanitize.attach_cluster cl;
    let finish = launch cl in
    Check.Sanitize.run_cluster cl;
    let x = finish () in
    Cluster.fsync_all cl;
    Cluster.check_invariants cl;
    if checked then Check.Sanitize.check_cluster cl;
    (cl, x)
  in
  let cl, x =
    if checked then begin
      (* The simulator must be a pure function of the scenario: build and
         run the whole world twice and compare event streams.  Only the
         kept (second) pass is a measurement. *)
      let kept = ref None in
      ignore
        (Check.Determinism.check ~name (fun () ->
             let ((cl, _) as r) = pass () in
             kept := Some r;
             Cluster.engine cl));
      Option.get !kept
    end
    else pass ()
  in
  (* The id is taken once per measured run, after both passes, so the
     row's "run" field does not depend on the check level and agrees
     with the label of every trace sink the passes opened. *)
  (Obs.Hub.next_run_id (), cl, x)

let write_rows ~schema ~path rows =
  (* Swap the accumulator out so the rows of the experiment harness
     (bound for BENCH_experiments.json) survive this write. *)
  let prior = Obs.Results.rows () in
  Obs.Results.clear ();
  List.iter Obs.Results.add rows;
  let n = Obs.Results.write ~schema ~path () in
  List.iter Obs.Results.add prior;
  n

let run_custom ?params ?config ?policy ~servers ~clients setup k =
  let run_id, cl, pio =
    run ~name:"harness"
      (fun () ->
        Cluster.create ?params ?config ?policy ~n_servers:servers
          ~n_clients:clients ())
      (fun cl ->
        Obs.Metrics.enable (Dessim.Engine.metrics (Cluster.engine cl));
        (* PIO ends when the last application process finishes;
           lock-cancel flushing still running then is background work the
           application never sees, charged to the F phase. *)
        let writers_done = ref 0. in
        let spawn i name body =
          Cluster.spawn_client cl i ~name (fun c ->
              body c;
              if Cluster.now cl > !writers_done then
                writers_done := Cluster.now cl)
        in
        setup cl spawn;
        fun () -> !writers_done)
  in
  let r = collect cl ~pio ~f:(Cluster.now cl -. pio) in
  Obs.Results.add (result_row cl ~run_id ~servers ~clients r);
  k cl r

let run_streams ?params ?config ?policy ?mode ?lock_whole_range
    ?(stripe_size = Units.mib) ~servers ~stripes ~streams () =
  run_custom ?params ?config ?policy ~servers ~clients:(Array.length streams)
    (fun _cl spawn ->
      Array.iteri
        (fun i (path, accesses) ->
          spawn i (Printf.sprintf "w%d" i) (fun c ->
              let layout = Layout.v ~stripe_size ~stripe_count:stripes () in
              let f = Client.open_file c ~create:true ~layout path in
              List.iter
                (fun (a : Workloads.Access.t) ->
                  Client.write ?mode ?lock_whole_range c f ~off:a.off ~len:a.len)
                accesses))
        streams)
    (fun _ r -> r)

let scaled ~scale n =
  max 1 (int_of_float (Float.round (float_of_int n *. scale)))

let speedup a b = Printf.sprintf "%.1fx" (a /. b)
