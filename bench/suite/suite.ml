(* The repository benchmark: four workloads, both clocks, end to end and
   per layer (README.md in this directory).

     suite.exe all [--seed S] [--size full|smoke] [--out FILE]
     suite.exe bench --workload W --seed S --seconds T --trace 0|1
     suite.exe compare PARENT.jsonl CHANGE.jsonl
     suite.exe smoke --spec BENCHMARK.json

   Every repetition runs in a child process of its own ([rep]), so each
   starts from a fresh heap and reports its own peak; the parent only
   aggregates.  Simulated-time results are taken from the first
   repetition and must be bit-identical in every other one, the traced
   repetition included. *)

module J = Obs.Json

let fail_usage msg =
  prerr_endline ("suite: " ^ msg);
  exit 2

(* ------------------------------------------------------------------ *)
(* Exact JSON output                                                    *)
(* ------------------------------------------------------------------ *)

(* Shortest decimal that reads back as the same double: measured values
   keep all their digits, and simulated ones round-trip bit for bit
   between the child and the parent. *)
let float_repr f =
  let rec go p =
    let s = Printf.sprintf "%.*g" p f in
    if p >= 17 || float_of_string s = f then s else go (p + 1)
  in
  if Float.is_finite f then go 15 else "null"

let rec to_buf b = function
  | J.Float f -> Buffer.add_string b (float_repr f)
  | J.List l ->
      Buffer.add_char b '[';
      List.iteri (fun i v -> if i > 0 then Buffer.add_char b ','; to_buf b v) l;
      Buffer.add_char b ']'
  | J.Obj kv ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          J.to_buffer b (J.Str k);
          Buffer.add_char b ':';
          to_buf b v)
        kv;
      Buffer.add_char b '}'
  | (J.Null | J.Bool _ | J.Int _ | J.Str _) as v -> J.to_buffer b v

let json_line v =
  let b = Buffer.create 256 in
  to_buf b v;
  Buffer.contents b

let member k v = Option.value (J.member k v) ~default:J.Null
let num k v = Option.value (J.get_float (member k v)) ~default:nan
let str k v = Option.value (J.get_string (member k v)) ~default:""

let obj_floats = function
  | J.Obj kv ->
      List.filter_map (fun (k, x) -> Option.map (fun f -> (k, f)) (J.get_float x)) kv
  | _ -> []

(* ------------------------------------------------------------------ *)
(* Statistics                                                           *)
(* ------------------------------------------------------------------ *)

(* Python's [statistics.quantiles(data, n=4)] (exclusive method): the
   benchmark's spread rule is stated in its terms. *)
let quartiles l =
  let a = Array.of_list (List.sort Float.compare l) in
  let ld = Array.length a in
  if ld = 0 then (nan, nan)
  else if ld = 1 then (a.(0), a.(0))
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 3)

(* ------------------------------------------------------------------ *)
(* One repetition (child process)                                       *)
(* ------------------------------------------------------------------ *)

let mib_of_words w = float_of_int (w * (Sys.word_size / 8)) /. 1048576.

let sim_json (s : Workload.sim) =
  J.Obj
    [
      ("events", J.Int s.events);
      ("fingerprint", J.Str (Int64.to_string s.fingerprint));
      ("ops", J.Int s.ops);
      ("bytes", J.Int s.bytes);
      ("goodput_Bps", J.Float s.goodput_Bps);
      ("ops_per_s", J.Float s.ops_per_s);
      ("io_s", J.Float s.io_s);
      ("lat_p50_s", J.Float s.lat_p50_s);
      ("lat_p999_s", J.Float s.lat_p999_s);
      ("lat_samples", J.Int s.lat_samples);
    ]

(* The smoke test's per-byte oracle, fed from the recorded cache
   inserts of the traced repetition. *)
let shadow_check errors (r : Workload.rep) (cap : Layers.capture) =
  let sh = Fuzz.Shadow.create ~layout:(Ccpfs.Client.layout r.file) in
  List.iter
    (fun (i : Layers.insert) ->
      Fuzz.Shadow.record_write sh ~writer:i.writer ~rid:i.rid ~range:i.range
        ~sn:i.sn ~op:i.op)
    (List.rev cap.inserts);
  match Fuzz.Shadow.check_against sh r.cl r.file with
  | () -> ()
  | exception Fuzz.Shadow.Divergence d ->
      errors := ("shadow file: " ^ d) :: !errors

let rep_main ~workload ~seed ~size ~traced ~check ~shadow =
  let cap = Layers.capture () in
  let instrument = if traced then Layers.instrument cap else ignore in
  let r = Workload.run ~instrument ~full_check:check workload ~size ~seed in
  let errors = ref r.errors in
  let traced_layers =
    if not traced then []
    else begin
      let layers, errs = Layers.traced r cap in
      errors := errs @ !errors;
      if shadow then shadow_check errors r cap;
      layers
    end
  in
  let layers = Layers.accessors r @ traced_layers in
  print_endline
    (json_line
       (J.Obj
          [
            ("setup_s", J.Float r.host.setup_s);
            ("host_s", J.Float r.host.host_s);
            ("heap_peak_mb", J.Float (mib_of_words r.host.heap_peak_words));
            ("minor_words", J.Float r.host.minor_words);
            ("major_collections", J.Int r.host.major_collections);
            ("attempted", J.Int r.attempted);
            ("failed", J.Int r.failed);
            ("errors", J.List (List.rev_map (fun e -> J.Str e) !errors));
            ("sim", sim_json r.sim);
            ("layers", J.Obj (List.map (fun (k, v) -> (k, J.Float v)) layers));
          ]))

(* ------------------------------------------------------------------ *)
(* Child processes                                                      *)
(* ------------------------------------------------------------------ *)

(* Run this executable with [args] and return the JSON of its last
   stdout line; waits for the child in every case. *)
let child args =
  let argv = Array.of_list (Sys.executable_name :: args) in
  let ic = Unix.open_process_args_in Sys.executable_name argv in
  let last = ref "" in
  (try
     while true do
       last := input_line ic
     done
   with End_of_file -> ());
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> (
      match J.parse !last with
      | Ok v -> Ok v
      | Error e -> Error ("unreadable child output: " ^ e))
  | _ -> Error ("child failed: " ^ String.concat " " args)

(* ------------------------------------------------------------------ *)
(* A series: the repetitions of one workload                            *)
(* ------------------------------------------------------------------ *)

type budget = Reps of int | Seconds of float

type series = {
  workload : Workload.name;
  reps : J.t list;  (** untraced, in run order *)
  traced : J.t option;
  max_rate : float option;  (** the open-loop SLO sweep, when run *)
  errors : string list;
}

let untraced_layer name =
  List.exists
    (fun (m : Spec.layer) -> String.equal m.lname name && not m.traced)
    Spec.per_layer

(* What must be bit-identical across repetitions: the simulated results
   and the accessor-level layer statistics. *)
let determinism_key v =
  let layers =
    match member "layers" v with
    | J.Obj kv -> J.Obj (List.filter (fun (k, _) -> untraced_layer k) kv)
    | other -> other
  in
  json_line (member "sim" v) ^ json_line layers

let series ?(sweep = false) ?(shadow = false) ~workload ~seed ~size ~budget
    ~min_reps ~traced () =
  let errors = ref [] in
  let add_error e = errors := e :: !errors in
  let start = Workload.host_now () in
  let more k =
    k <= min_reps
    ||
    match budget with
    | Reps n -> k <= n
    | Seconds t -> Workload.host_now () -. start < t
  in
  let run_child extra =
    let args =
      [ "rep"; "--workload"; Workload.to_string workload; "--seed";
        string_of_int seed; "--size"; Workload.size_to_string size ]
      @ extra
    in
    match child args with
    | Ok v ->
        List.iter
          (fun e -> Option.iter add_error (J.get_string e))
          (J.get_list (member "errors" v));
        Some v
    | Error e ->
        add_error e;
        None
  in
  (* The quadratic lock-table sweep runs on the first repetition only. *)
  let rec loop k acc =
    if not (more k) then List.rev acc
    else
      match run_child (if k = 1 then [ "--check" ] else []) with
      | Some v -> loop (k + 1) (v :: acc)
      | None -> List.rev acc
  in
  let reps = loop 1 [] in
  let traced =
    if not traced then None
    else
      run_child
        (("--traced" :: (if reps = [] then [ "--check" ] else []))
        @ if shadow then [ "--shadow" ] else [])
  in
  (match reps @ Option.to_list traced with
  | first :: others ->
      List.iteri
        (fun i v ->
          if not (String.equal (determinism_key v) (determinism_key first)) then
            add_error
              (Printf.sprintf "determinism: repetition %d differs from the first"
                 (i + 2)))
        others
  | [] -> add_error "no repetition completed");
  let max_rate =
    if not sweep then None
    else
      match
        child
          [ "sweep"; "--seed"; string_of_int seed; "--size";
            Workload.size_to_string size ]
      with
      | Ok v -> Some (num "max_rate_rps" v)
      | Error e ->
          add_error e;
          None
  in
  { workload; reps; traced; max_rate; errors = List.rev !errors }

(* ------------------------------------------------------------------ *)
(* Metrics of a series                                                  *)
(* ------------------------------------------------------------------ *)

let host_samples s name = List.map (num name) s.reps

let first_sim s k =
  match s.reps @ Option.to_list s.traced with
  | v :: _ -> num k (member "sim" v)
  | [] -> nan

let total s k =
  List.fold_left
    (fun a v -> a + int_of_float (num k v))
    0
    (s.reps @ Option.to_list s.traced)

(* End-to-end value of [m]; [None] when it is not defined on this
   workload (N/A). *)
let e2e_value s (m : Spec.e2e) =
  match m.name with
  | "setup_s" | "host_s" | "heap_peak_mb" -> Some (Workload.median (host_samples s m.name))
  | "sim_goodput_GBps" -> Some (first_sim s "goodput_Bps" /. 1e9)
  | "sim_ops_per_s" -> Some (first_sim s "ops_per_s")
  | "sim_io_s" -> Some (first_sim s "io_s")
  | "sim_lat_p50_us" -> Some (first_sim s "lat_p50_s" *. 1e6)
  | "sim_lat_p999_us" -> Some (first_sim s "lat_p999_s" *. 1e6)
  | "sim_max_rate_under_slo_rps" -> s.max_rate
  | "failed_frac" ->
      Some
        (float_of_int (total s "failed")
        /. float_of_int (max 1 (total s "attempted")))
  | other -> invalid_arg ("e2e_value: " ^ other)

(* Per-layer values: accessor metrics from the first repetition,
   traced-only ones from the traced repetition, host-side ratios from
   the untraced repetitions. *)
let layer_values s =
  let layers_of = function
    | Some v -> obj_floats (member "layers" v)
    | None -> []
  in
  let untraced = layers_of (match s.reps with v :: _ -> Some v | [] -> s.traced) in
  let traced = layers_of s.traced in
  let host_s = Workload.median (host_samples s "host_s") in
  let host =
    [
      ("engine.host_ns_per_event", host_s *. 1e9 /. first_sim s "events");
      ( "gc.minor_words_per_op",
        Workload.median (host_samples s "minor_words") /. first_sim s "ops" );
      ("gc.major_collections", Workload.median (host_samples s "major_collections"));
      ( "trace.host_overhead_frac",
        match s.traced with Some t -> (num "host_s" t /. host_s) -. 1. | None -> nan );
    ]
  in
  List.filter_map
    (fun (m : Spec.layer) ->
      let pick l = List.assoc_opt m.lname l in
      let v =
        match pick host with
        | Some v -> Some v
        | None -> if m.traced then pick traced else pick untraced
      in
      match v with
      | Some v when Float.is_finite v -> Some (m, v)
      | _ -> None)
    Spec.per_layer

(* ------------------------------------------------------------------ *)
(* Provenance                                                           *)
(* ------------------------------------------------------------------ *)

let command_output prog args =
  match
    let ((ic, oc, ec) as p) =
      Unix.open_process_args_full prog
        (Array.of_list (prog :: args))
        (Unix.environment ())
    in
    close_out oc;
    let out = In_channel.input_all ic in
    ignore (In_channel.input_all ec);
    (out, Unix.close_process_full p)
  with
  | out, Unix.WEXITED 0 -> Some (String.trim out)
  | _ | (exception Unix.Unix_error _) -> None

let env_knobs () =
  Array.to_list (Unix.environment ())
  |> List.filter (fun kv ->
         String.starts_with ~prefix:"CCPFS_" kv
         || String.starts_with ~prefix:"OCAMLRUNPARAM=" kv)
  |> List.sort String.compare

(* [host] adds what needs more than the checkout: the git commit and the
   CPU model.  [bench], which may run in a plain copy of the sources,
   leaves them out. *)
let provenance ~host =
  let base =
    [
      ("ocaml", J.Str Sys.ocaml_version);
      ("flambda", J.Bool Build_info.flambda);
      ("nproc", J.Int (Domain.recommended_domain_count ()));
      ("env", J.List (List.map (fun s -> J.Str s) (env_knobs ())));
    ]
  in
  if not host then J.Obj base
  else
    let opt = function Some s -> J.Str s | None -> J.Null in
    let cpu =
      match In_channel.with_open_text "/proc/cpuinfo" In_channel.input_all with
      | text ->
          List.find_map
            (fun line ->
              match String.split_on_char ':' line with
              | k :: v :: _ when String.equal (String.trim k) "model name" ->
                  Some (String.trim v)
              | _ -> None)
            (String.split_on_char '\n' text)
      | exception Sys_error _ -> None
    in
    let dirty =
      match command_output "git" [ "status"; "--porcelain"; "--untracked-files=no" ] with
      | Some s -> J.Bool (String.length s > 0)
      | None -> J.Null
    in
    J.Obj
      (("commit", opt (command_output "git" [ "rev-parse"; "HEAD" ]))
      :: ("dirty", dirty) :: ("cpu", opt cpu) :: base)

(* The suite never attaches the protocol sanitizer, so [CCPFS_CHECK]
   would not change what it measures; refusing it keeps every recorded
   run free of a knob that changes other commands' behaviour, so runs
   stay comparable. *)
let refuse_sanitizer () =
  match Sys.getenv_opt "CCPFS_CHECK" with
  | Some v when String.length v > 0 ->
      prerr_endline
        "suite: CCPFS_CHECK is set; unset it so that recorded runs stay \
         comparable";
      exit 2
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* all                                                                  *)
(* ------------------------------------------------------------------ *)

let print_metric w name v unit =
  Printf.printf "%-14s %-34s %s %s\n" w name
    (match v with Some v -> float_repr v | None -> "N/A")
    unit

let report s =
  let w = Workload.to_string s.workload in
  List.iter
    (fun (m : Spec.e2e) ->
      print_metric w m.name (e2e_value s m) m.unit;
      if (not m.sim) && List.length s.reps > 1 then begin
        let q1, q3 = quartiles (host_samples s m.name) in
        Printf.printf "%-14s %-34s   quartiles %s .. %s over %d reps\n" w m.name
          (float_repr q1) (float_repr q3) (List.length s.reps)
      end)
    Spec.end_to_end;
  Printf.printf "%-14s %-34s %.0f operations\n" w "sim_lat samples"
    (first_sim s "lat_samples");
  List.iter
    (fun ((m : Spec.layer), v) -> print_metric w m.lname (Some v) m.lunit)
    (layer_values s);
  List.iter (fun e -> Printf.printf "%-14s CHECK FAILED: %s\n" w e) s.errors

let series_json s =
  ( Workload.to_string s.workload,
    J.Obj
      [
        ("correct", J.Bool (s.errors = []));
        ("reps", J.Int (List.length s.reps));
        ( "e2e",
          J.Obj
            (List.map
               (fun (m : Spec.e2e) ->
                 ( m.name,
                   match e2e_value s m with Some v -> J.Float v | None -> J.Null ))
               Spec.end_to_end) );
        ( "samples",
          J.Obj
            (List.map
               (fun k ->
                 (k, J.List (List.map (fun f -> J.Float f) (host_samples s k))))
               [ "setup_s"; "host_s"; "heap_peak_mb" ]) );
        ( "layers",
          J.Obj
            (List.map
               (fun ((m : Spec.layer), v) -> (m.lname, J.Float v))
               (layer_values s)) );
        ("errors", J.List (List.map (fun e -> J.Str e) s.errors));
      ] )

(* Which end-to-end metric and workload each layer's metrics should
   move, as written down before any measurement. *)
let print_layer_map () =
  let layers = List.sort_uniq String.compare (List.map (fun (m : Spec.layer) -> m.layer) Spec.per_layer) in
  List.iter
    (fun layer ->
      let ms = List.filter (fun (m : Spec.layer) -> String.equal m.layer layer) Spec.per_layer in
      let moves = List.sort_uniq String.compare (List.map (fun (m : Spec.layer) -> m.moves) ms) in
      Printf.printf "layer %-12s %s\n%-18s moves %s\n" layer
        (String.concat ", " (List.map (fun (m : Spec.layer) -> m.lname) ms))
        "" (String.concat "; " moves))
    layers

(* Untraced repetitions per workload in [all]; the host metrics are
   their medians. *)
let reps = 5

(* [reps] repetitions plus the traced one for every workload, every
   metric printed, and one JSON line appended to [out] for [compare]. *)
let measure ~seed ~size ~out =
  refuse_sanitizer ();
  let prov = provenance ~host:true in
  Printf.printf "provenance %s\n%!" (json_line prov);
  print_layer_map ();
  let series_list =
    List.map
      (fun w ->
        let s =
          series ~sweep:(w = Workload.Open_mixed) ~workload:w ~seed ~size
            ~budget:(Reps reps) ~min_reps:1 ~traced:true ()
        in
        report s;
        flush stdout;
        s)
      Workload.all
  in
  let line =
    json_line
      (J.Obj
         [
           ("provenance", prov);
           ("seed", J.Int seed);
           ("size", J.Str (Workload.size_to_string size));
           ("reps", J.Int reps);
           ("workloads", J.Obj (List.map series_json series_list));
         ])
  in
  Out_channel.with_open_gen [ Open_append; Open_creat; Open_text ] 0o644 out
    (fun oc -> output_string oc (line ^ "\n"));
  Printf.printf "appended to %s\n" out;
  if List.exists (fun s -> s.errors <> []) series_list then exit 1

(* ------------------------------------------------------------------ *)
(* bench: one workload for a fixed time, as BENCHMARK.json runs it     *)
(* ------------------------------------------------------------------ *)

(* [trace] selects the per-layer metrics, else the end-to-end ones that
   BENCHMARK.json lists. *)
let bench_metrics ~trace s =
  if trace then
    List.map (fun ((m : Spec.layer), v) -> (m.lname, v, m.lunit)) (layer_values s)
  else
    List.filter_map
      (fun (m : Spec.e2e) ->
        if Option.is_none m.listed then None
        else Option.map (fun v -> (m.name, v, m.unit)) (e2e_value s m))
      Spec.end_to_end

(* Untraced repetitions for [seconds] (at least three), or for half of
   it (at least two) followed by the traced one. *)
let bench ~workload ~seed ~seconds ~trace =
  refuse_sanitizer ();
  Printf.printf "provenance %s\n%!" (json_line (provenance ~host:false));
  let s =
    if trace then
      series ~workload ~seed ~size:Workload.Full ~budget:(Seconds (seconds /. 2.))
        ~min_reps:2 ~traced:true ()
    else
      series ~workload ~seed ~size:Workload.Full ~budget:(Seconds seconds)
        ~min_reps:3 ~traced:false ()
  in
  List.iter (fun e -> Printf.printf "CHECK FAILED: %s\n" e) s.errors;
  let metrics = bench_metrics ~trace s in
  List.iter
    (fun (k, v, u) -> print_metric (Workload.to_string workload) k (Some v) u)
    metrics;
  print_endline
    (json_line
       (J.Obj
          [
            ("correct", J.Bool (s.errors = []));
            ("attempted", J.Int (total s "attempted"));
            ("failed", J.Int (total s "failed"));
            ( "metrics",
              J.Obj
                (List.map
                   (fun (k, v, u) ->
                     (k, J.Obj [ ("value", J.Float v); ("unit", J.Str u) ]))
                   metrics) );
          ]));
  if s.errors <> [] then exit 1

(* ------------------------------------------------------------------ *)
(* compare                                                              *)
(* ------------------------------------------------------------------ *)

let read_runs path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.length (String.trim l) > 0)
  |> List.map J.parse_exn

let verdict (m : Spec.e2e) p c =
  let better a b = match m.better with Spec.Lower -> a < b | Spec.Higher -> a > b in
  let n = List.length p in
  let wins = List.fold_left2 (fun a x y -> if better y x then a + 1 else a) 0 p c in
  let pm = Workload.median p and cm = Workload.median c in
  let pq1, pq3 = quartiles p in
  let iqr = pq3 -. pq1 in
  (* How much worse the change's median may be, in the metric's unit. *)
  let allowed = Float.max (m.bound *. Float.abs pm) m.floor in
  let worse_by = if better pm cm then Float.abs (cm -. pm) else 0. in
  let every rel = List.for_all (fun y -> List.for_all (fun x -> rel y x) p) c in
  let v =
    if m.sim then
      (* Deterministic: any difference beyond float noise on the same
         seeds is real. *)
      let same x y = Float.abs (x -. y) <= m.bound *. Float.abs x in
      if List.for_all2 same p c then "unchanged"
      else if List.exists2 (fun x y -> better x y && not (same x y)) p c then "worse"
      else "improved"
    else if n >= 10 && wins * 10 >= 9 * n && better cm pm && Float.abs (cm -. pm) > iqr
    then "improved"
    else if worse_by > allowed then
      if iqr > allowed && not (every (fun y x -> better x y)) then "unresolved"
      else "worse"
    else if iqr > allowed && not (every better) then "unresolved"
    else "unchanged"
  in
  (v, wins)

(* Per workload and end-to-end metric, one value per run (a run's
   median for host metrics).  Runs pair up in file order; record them
   alternating which side runs first. *)
let compare_main parent_path change_path =
  let parent = read_runs parent_path and change = read_runs change_path in
  let n = min (List.length parent) (List.length change) in
  let first l = List.filteri (fun i _ -> i < n) l in
  let values runs w k =
    List.filter_map
      (fun r -> J.get_float (member k (member "e2e" (member w (member "workloads" r)))))
      (first runs)
  in
  let cell l =
    let q1, q3 = quartiles l in
    Printf.sprintf "%.6g [%.6g %.6g]" (Workload.median l) q1 q3
  in
  Printf.printf "%d paired run(s)\n%-14s %-28s %-36s %-36s %-6s %s\n" n "workload"
    "metric" "parent median [q1 q3]" "change median [q1 q3]" "wins" "verdict";
  let worse = ref 0 in
  List.iter
    (fun w ->
      let w = Workload.to_string w in
      List.iter
        (fun (m : Spec.e2e) ->
          let p = values parent w m.name and c = values change w m.name in
          if n > 0 && List.length p = n && List.length c = n then begin
            let v, wins = verdict m p c in
            if String.equal v "worse" then incr worse;
            Printf.printf "%-14s %-28s %-36s %-36s %2d/%-3d %s\n" w m.name (cell p)
              (cell c) wins n v
          end)
        Spec.end_to_end)
    Workload.all;
  if !worse > 0 then exit 1

(* ------------------------------------------------------------------ *)
(* smoke (dune runtest)                                                 *)
(* ------------------------------------------------------------------ *)

let better_of name =
  match
    ( Spec.find_e2e name,
      List.find_opt (fun (m : Spec.layer) -> String.equal m.lname name) Spec.per_layer )
  with
  | Some m, _ -> Spec.better_to_string m.better
  | None, Some m -> Spec.better_to_string m.lbetter
  | None, None -> "?"

(* All four workloads at smoke size, two repetitions plus the traced one
   with the per-byte shadow oracle.  The workloads, metric names, units,
   directions and bounds the suite emits must be exactly BENCHMARK.json's. *)
let smoke spec_path =
  let spec = J.parse_exn (In_channel.with_open_text spec_path In_channel.input_all) in
  let failures = ref [] in
  let fail f = failures := f :: !failures in
  let expect what declared emitted =
    if declared <> emitted then
      fail
        (Printf.sprintf "%s: BENCHMARK.json has [%s], the suite emits [%s]" what
           (String.concat "; " declared) (String.concat "; " emitted))
  in
  let entries key f = List.map f (J.get_list (member key spec)) in
  let triple e = String.concat " " [ str "name" e; str "unit" e; str "better" e ] in
  expect "workloads" (entries "workloads" (str "name")) (List.map Workload.to_string Workload.all);
  List.iter
    (fun e ->
      match Spec.find_e2e (str "name" e) with
      | Some m when m.listed <> Some (num "bound" e) ->
          fail
            (Printf.sprintf "%s: bound %g in BENCHMARK.json, %s in spec.ml" m.name
               (num "bound" e)
               (match m.listed with Some b -> string_of_float b | None -> "none"))
      | _ -> ())
    (J.get_list (member "end_to_end" spec));
  List.iter
    (fun w ->
      let s =
        series ~shadow:true ~workload:w ~seed:1 ~size:Workload.Smoke ~budget:(Reps 2)
          ~min_reps:2 ~traced:true ()
      in
      let name = Workload.to_string w in
      List.iter (fun e -> fail (name ^ ": " ^ e)) s.errors;
      let emitted trace =
        List.map
          (fun (k, _, u) -> String.concat " " [ k; u; better_of k ])
          (bench_metrics ~trace s)
      in
      expect (name ^ " end_to_end") (entries "end_to_end" triple) (emitted false);
      expect (name ^ " per_layer") (entries "per_layer" triple) (emitted true);
      Printf.printf "smoke %-14s %d reps + traced: %s\n%!" name (List.length s.reps)
        (if s.errors = [] then "ok" else "FAILED"))
    Workload.all;
  match List.rev !failures with
  | [] -> print_endline "smoke: ok"
  | l ->
      List.iter (fun f -> prerr_endline ("smoke: " ^ f)) l;
      exit 1

(* ------------------------------------------------------------------ *)
(* Command line                                                         *)
(* ------------------------------------------------------------------ *)

let () =
  let cmd, rest =
    match List.tl (Array.to_list Sys.argv) with c :: r -> (c, r) | [] -> ("all", [])
  in
  let is_opt a = String.starts_with ~prefix:"--" a in
  let rec parse pos acc = function
    | [] -> (List.rev pos, acc)
    | k :: v :: rest when is_opt k && not (is_opt v) -> parse pos ((k, v) :: acc) rest
    | k :: rest when is_opt k -> parse pos ((k, "") :: acc) rest
    | a :: rest -> parse (a :: pos) acc rest
  in
  let positional, opts = parse [] [] rest in
  let get k = List.assoc_opt k opts in
  let flag k = Option.is_some (get k) in
  let workload () =
    match Option.bind (get "--workload") Workload.of_string with
    | Some w -> w
    | None ->
        fail_usage
          ("--workload must be one of "
          ^ String.concat ", " (List.map Workload.to_string Workload.all))
  in
  let size () =
    match Workload.size_of_string (Option.value (get "--size") ~default:"full") with
    | Some s -> s
    | None -> fail_usage "--size must be full or smoke"
  in
  let seed =
    match get "--seed" with
    | None -> 1
    | Some v -> (
        match int_of_string_opt v with
        | Some i -> i
        | None -> fail_usage "--seed: not an integer")
  in
  let out = Option.value (get "--out") ~default:"bench/suite/runs.jsonl" in
  match (cmd, positional) with
  | "rep", [] ->
      rep_main ~workload:(workload ()) ~seed ~size:(size ()) ~traced:(flag "--traced")
        ~check:(flag "--check") ~shadow:(flag "--shadow")
  | "sweep", [] ->
      let rate = Workload.max_rate_under_slo ~size:(size ()) ~seed in
      print_endline (json_line (J.Obj [ ("max_rate_rps", J.Float rate) ]))
  | "bench", [] ->
      let seconds =
        match Option.bind (get "--seconds") float_of_string_opt with
        | Some s when s > 0. -> s
        | _ -> fail_usage "--seconds must be positive"
      in
      let trace =
        match get "--trace" with
        | Some "0" -> false
        | Some "1" -> true
        | _ -> fail_usage "--trace must be 0 or 1"
      in
      bench ~workload:(workload ()) ~seed ~seconds ~trace
  | "all", [] -> measure ~seed ~size:(size ()) ~out
  | "compare", [ parent; change ] -> compare_main parent change
  | "smoke", [] -> smoke (Option.value (get "--spec") ~default:"BENCHMARK.json")
  | _ -> fail_usage ("usage: see the header of bench/suite/suite.ml (got " ^ cmd ^ ")")
