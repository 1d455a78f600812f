open Obs

type pins = {
  rows : int option;
  fields : (string * Json.t) list;
  events : string list;
}

let no_pins = { rows = None; fields = []; events = [] }

(* ------------------------------------------------------------------ *)
(* Failure collection                                                  *)
(* ------------------------------------------------------------------ *)

(* Every failed assertion is recorded rather than raised, so one report
   names all the broken invariants of a document at once.  [at] prefixes
   messages with the row being checked. *)
type report = { mutable errors : string list; mutable at : string }

let ensure rep ok fmt =
  Printf.ksprintf
    (fun msg -> if not ok then rep.errors <- (rep.at ^ msg) :: rep.errors)
    fmt

exception Missing of string

let field r k = match Json.member k r with Some v -> v | None -> raise (Missing k)

let num r k =
  match Json.get_float (field r k) with Some f -> f | None -> raise (Missing k)

let int r k = match field r k with Json.Int i -> i | _ -> raise (Missing k)
let str r k = match field r k with Json.Str s -> s | _ -> raise (Missing k)
let flag r k = match field r k with Json.Bool b -> b | _ -> raise (Missing k)

let guarded rep f =
  try f () with Missing k -> ensure rep false "missing or ill-typed field %S" k

let sum = List.fold_left ( + ) 0

(* Strictly increasing in list order. *)
let rec ascending = function
  | (a : float) :: (b :: _ as rest) -> a < b && ascending rest
  | [ _ ] | [] -> true

(* ------------------------------------------------------------------ *)
(* Per-schema invariants                                               *)
(* ------------------------------------------------------------------ *)

type schema = {
  id : string;
  row : report -> Json.t -> unit;  (** one row on its own *)
  across : report -> Json.t list -> unit;  (** the rows together *)
}

let nothing_across _ _ = ()

let percentiles rep r ~p50 ~p99 =
  let p50 = num r p50 and p99 = num r p99 in
  ensure rep (0. < p50 && p50 < p99) "percentiles not spread: p50 %g, p99 %g"
    p50 p99

let experiments =
  {
    id = "ccpfs.experiments/1";
    row =
      (fun rep r ->
        ensure rep (str r "experiment" <> "") "empty experiment id";
        ensure rep (num r "bandwidth_Bps" > 0.) "bandwidth_Bps not positive";
        List.iter
          (fun k ->
            ensure rep (match field r k with Json.Obj _ -> true | _ -> false)
              "%s is not an object" k)
          [ "lock_stats"; "metrics" ]);
    across = nothing_across;
  }

let scale =
  {
    id = "ccpfs.scale/1";
    row =
      (fun rep r ->
        ensure rep (str r "experiment" = "scale") "experiment is not scale";
        let clients = int r "clients" and requests = int r "requests" in
        ensure rep (requests = clients * int r "writes_each")
          "requests <> clients x writes_each";
        (* every write takes one whole-file PW lock, so at some instant
           every other client is queued behind the holder *)
        let ls = field r "lock_stats" in
        ensure rep (int ls "grants" >= requests) "fewer grants than requests";
        let q = int ls "max_queue" in
        ensure rep (0 < q && q <= requests)
          "max_queue %d outside (0, requests]" q;
        ensure rep (q >= clients - 1 && q <= clients)
          "max_queue %d: whole-file contention must queue %d clients" q clients;
        percentiles rep r ~p50:"write_lat_p50_s" ~p99:"write_lat_p99_s");
    across = nothing_across;
  }

let load =
  {
    id = "ccpfs.load/1";
    row =
      (fun rep r ->
        ensure rep (str r "experiment" = "load") "experiment is not load";
        let arrivals = int r "arrivals" in
        ensure rep (int r "completed" + int r "shed" = arrivals)
          "completed + shed <> arrivals";
        ensure rep (arrivals = int r "requests") "arrivals <> requests";
        let achieved = num r "achieved_rate_rps" in
        ensure rep (0. < achieved && achieved <= num r "offered_rate_rps")
          "achieved rate %g outside (0, offered]" achieved;
        ensure rep (num r "goodput_Bps" > 0. && num r "window_s" > 0.)
          "goodput_Bps and window_s must be positive";
        percentiles rep r ~p50:"sojourn_p50_s" ~p99:"sojourn_p99_s";
        ensure rep (num r "sojourn_p99_s" <= num r "sojourn_p999_s")
          "sojourn p99 above p999";
        ensure rep ((not (flag r "knee")) || flag r "violates")
          "knee row does not violate");
    across =
      (fun rep rows ->
        ensure rep (ascending (List.map (fun r -> num r "offered_rate_rps") rows))
          "offered rates not strictly ascending";
        let knees = List.length (List.filter (fun r -> flag r "knee") rows) in
        ensure rep (knees = 1) "expected exactly one knee row, got %d" knees;
        match List.rev rows with
        | last :: _ ->
            ensure rep (flag last "violates") "top rate point does not violate"
        | [] -> ());
  }

let shard =
  {
    id = "ccpfs.shard/1";
    row =
      (fun rep r ->
        ensure rep (str r "experiment" = "shard") "experiment is not shard";
        ensure rep (int r "requests" = int r "clients" * int r "writes_each")
          "requests <> clients x writes_each";
        ensure rep (num r "sim_pio_s" > 0.) "sim_pio_s must be positive";
        percentiles rep r ~p50:"write_lat_p50_s" ~p99:"write_lat_p99_s";
        if int r "servers" = 1 then
          ensure rep (int r "migrations" = 0 && int r "stale_bounces" = 0)
            "a single server cannot migrate or bounce");
    across =
      (fun rep rows ->
        let rate r = num r "requests_per_sim_s" in
        ensure rep
          (ascending (List.map (fun r -> float_of_int (int r "servers")) rows))
          "server counts not strictly ascending";
        ensure rep (ascending (List.map rate rows))
          "requests_per_sim_s does not rise with the server count";
        match (rows, List.rev rows) with
        | first :: _ :: _, last :: _ ->
            let gain = rate last /. rate first in
            ensure rep (gain >= 1.3) "sharding gained only %.2fx" gain;
            ensure rep (sum (List.map (fun r -> int r "migrations") rows) >= 1)
              "no epoch-fenced migration committed";
            ensure rep (sum (List.map (fun r -> int r "stale_bounces") rows) >= 1)
              "Stale_owner path never exercised"
        | _ -> ());
  }

let repl_series_buckets = 24

let repl =
  {
    id = "ccpfs.repl/1";
    row =
      (fun rep r ->
        ensure rep (str r "experiment" = "repl") "experiment is not repl";
        ensure rep (int r "clients" > 1 && int r "ops" > 0)
          "needs > 1 client and > 0 ops";
        let window = num r "unavailability_s" in
        ensure rep (Float.is_finite window && window > 0.)
          "unavailability_s %g not finite and positive" window;
        List.iter
          (fun k ->
            let v = num r k in
            ensure rep (0. < v && v < window) "%s %g outside (0, window)" k v)
          [ "detect_latency_s"; "recovery_s" ];
        ensure rep (num r "crash_s" > 0.) "crash_s not positive";
        ensure rep (num r "crash_s" +. window <= num r "sim_total_s")
          "outage ends after the run";
        ensure rep (int r "epoch" >= 1) "no fence epoch installed";
        ensure rep (int r "retries" > 0) "outage cost no retries";
        ensure rep (int r "reinstalled_locks" > 0 && int r "replayed_bytes" > 0)
          "recovery reinstalled no locks or replayed no bytes";
        (* the §16 audit: nothing a client caches may be missing from or
           divergent with the recovered server table *)
        ensure rep (int r "lost_grants" = 0) "lost grants";
        ensure rep (int r "divergent_locks" = 0) "divergent locks";
        (match str r "mode" with
        | "replay" ->
            ensure rep
              (int r "replication" >= 1 && int r "log_entries" > 0
              && int r "log_bytes" > 0 && int r "elected_backup" >= 0)
              "replay row without a replicated log fetched by election"
        | "gather" ->
            ensure rep
              (int r "replication" = 0 && int r "log_entries" = 0
              && int r "elected_backup" = -1)
              "gather row carries replication facts"
        | m -> ensure rep false "unknown mode %S" m);
        match str r "loop" with
        | "open" ->
            ensure rep (int r "completed" + int r "shed" = int r "arrivals")
              "completed + shed <> arrivals";
            let achieved = num r "achieved_rate_rps" in
            ensure rep (0. < achieved && achieved <= num r "offered_rate_rps")
              "achieved rate %g outside (0, offered]" achieved
        | "closed" ->
            let series =
              List.map
                (function Json.Int n -> n | _ -> raise (Missing "throughput_ops"))
                (Json.get_list (field r "throughput_ops"))
            in
            ensure rep (num r "throughput_bucket_s" > 0.)
              "throughput_bucket_s not positive";
            ensure rep
              (List.length series = repl_series_buckets
              && sum series = int r "ops")
              "throughput series must be %d buckets summing to ops"
              repl_series_buckets
        | l -> ensure rep false "unknown loop %S" l);
    across =
      (fun rep rows ->
        let find mode loop =
          List.find_opt
            (fun r -> str r "mode" = mode && str r "loop" = loop)
            (List.rev rows)
        in
        (* on the same workload and fault point, replaying a backup's log
           must beat gathering the lock table from every client *)
        List.iter
          (fun loop ->
            match (find "gather" loop, find "replay" loop) with
            | Some g, Some r ->
                ensure rep (num r "recovery_s" < num g "recovery_s")
                  "%s loop: replay recovery not faster than gather" loop;
                ensure rep (num r "unavailability_s" < num g "unavailability_s")
                  "%s loop: replay window not shorter than gather" loop
            | _ ->
                ensure rep false "%s loop: missing a gather or replay row" loop)
          [ "closed"; "open" ]);
  }

(* bench/main.exe's micro-benchmark rows.  A benchmark Bechamel could
   not fit is written with a null (or non-finite) estimate; that row
   must fail the check rather than be uploaded as a result. *)
let micro =
  {
    id = "ccpfs.micro/1";
    row =
      (fun rep r ->
        ensure rep (str r "name" <> "") "empty benchmark name";
        match field r "ns_per_run" with
        | Json.Null ->
            ensure rep false "%s: no estimate (ns_per_run is null)" (str r "name")
        | _ ->
            let ns = num r "ns_per_run" in
            ensure rep (Float.is_finite ns && ns > 0.)
              "%s: ns_per_run %g not finite and positive" (str r "name") ns);
    across = nothing_across;
  }

let schemas = [ experiments; scale; load; shard; repl; micro ]

(* ------------------------------------------------------------------ *)
(* Documents                                                           *)
(* ------------------------------------------------------------------ *)

let results rep pins (s : schema) rows =
  let n = List.length rows in
  ensure rep (n > 0) "no result rows";
  Option.iter
    (fun want -> ensure rep (n = want) "expected %d rows, got %d" want n)
    pins.rows;
  List.iteri
    (fun i r ->
      rep.at <- Printf.sprintf "row %d: " i;
      guarded rep (fun () ->
          s.row rep r;
          List.iter
            (fun (k, want) ->
              let got = Json.to_string (field r k) in
              ensure rep (got = Json.to_string want) "%s is %s, pinned %s" k got
                (Json.to_string want))
            pins.fields))
    rows;
  rep.at <- "";
  guarded rep (fun () -> s.across rep rows);
  Printf.sprintf "%s, %d row(s)" s.id n

(* Chrome trace_event JSON: every B/E span is closed by an E of the same
   name on the same (pid, tid), and every pinned event name occurs. *)
let trace rep pins events =
  ensure rep (not (List.is_empty events)) "trace has no events";
  let stacks = Hashtbl.create 64 and open_spans = ref 0 in
  let key e =
    ( Option.bind (Json.member "pid" e) Json.get_int,
      Option.bind (Json.member "tid" e) Json.get_int )
  in
  let name e = Option.bind (Json.member "name" e) Json.get_string in
  List.iter
    (fun e ->
      match Option.bind (Json.member "ph" e) Json.get_string with
      | Some "B" ->
          let k = key e in
          let stack = Option.value (Hashtbl.find_opt stacks k) ~default:[] in
          Hashtbl.replace stacks k (name e :: stack);
          incr open_spans
      | Some "E" -> (
          match Option.value (Hashtbl.find_opt stacks (key e)) ~default:[] with
          | top :: rest when Option.equal String.equal top (name e) ->
              Hashtbl.replace stacks (key e) rest;
              decr open_spans
          | _ ->
              ensure rep false "unmatched end span %S"
                (Option.value (name e) ~default:"?"))
      | _ -> ())
    events;
  ensure rep (!open_spans = 0) "%d span(s) never closed" !open_spans;
  List.iter
    (fun want ->
      ensure rep
        (List.exists
           (fun e -> Option.equal String.equal (name e) (Some want))
           events)
        "no %S event in the trace" want)
    pins.events;
  Printf.sprintf "trace, %d event(s), spans balanced" (List.length events)

type kind = Results | Trace

let check pins doc =
  let rep = { errors = []; at = "" } in
  let outcome =
    match (Json.member "schema" doc, Json.member "traceEvents" doc) with
    | Some (Json.Str id), _ -> (
        match
          ( List.find_opt (fun s -> String.equal s.id id) schemas,
            Json.member "results" doc )
        with
        | Some s, Some (Json.List rows) -> Some (Results, results rep pins s rows)
        | None, _ ->
            ensure rep false "unknown schema %S" id;
            None
        | Some _, _ ->
            ensure rep false "no results list";
            None)
    | None, Some (Json.List events) -> Some (Trace, trace rep pins events)
    | _ ->
        ensure rep false "neither a results document nor a Chrome trace";
        None
  in
  match (rep.errors, outcome) with
  | [], Some ok -> Ok ok
  | errs, _ -> Error (List.rev errs)

let document ?(pins = no_pins) doc = Result.map snd (check pins doc)

let files ?(pins = no_pins) paths =
  let one path =
    let tag = List.map (fun e -> path ^ ": " ^ e) in
    match Json.parse (In_channel.with_open_bin path In_channel.input_all) with
    | Ok doc -> (
        match check pins doc with
        | Ok (kind, summary) -> Either.Left (kind, path ^ ": " ^ summary)
        | Error errs -> Either.Right (tag errs))
    | Error e -> Either.Right (tag [ e ])
    | exception Sys_error e -> Either.Right [ e ]
  in
  let oks, errs = List.partition_map one paths in
  let seen kind = List.exists (fun (k, _) -> k = kind) oks in
  let row_pinned =
    Option.is_some pins.rows
    || not (List.is_empty pins.fields)
  in
  (* A pin that matched no document of its kind would pass silently. *)
  let unused =
    (if row_pinned && not (seen Results) then
       [ "row pins matched no results document" ]
     else [])
    @
    if (not (List.is_empty pins.events)) && not (seen Trace) then
      [ "event pins matched no trace" ]
    else []
  in
  match List.concat errs with
  | [] when List.is_empty unused -> Ok (List.map snd oks)
  | [] -> Error unused
  | errs -> Error errs
