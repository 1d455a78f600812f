type op =
  | Write of { block : int; blocks : int }
  | Read of { block : int; blocks : int }
  | Append of { blocks : int }
  | Truncate of { blocks : int }

type phase = {
  ops : op list array;
  crash_server : int option;
  crash_mid : (int * float) option;
}

type churn = { ch_at : float; ch_client : int; ch_up : bool }

type load = {
  l_rate : float;
  l_process : int; (* 0 constant, 1 poisson, 2 mmpp *)
  l_requests : int;
  l_cap : int;
  l_churn : churn list;
}

type migration = { mg_stripe : int; mg_dst : int; mg_after : float }

type partition = {
  pt_server : int;
  pt_at : float;
  pt_dur : float;
  pt_loss : float;
  pt_dup : float;
}

type sim = {
  policy_idx : int;
  n_servers : int;
  n_clients : int;
  stripes : int;
  stripe_blocks : int;
  dirty_min_blocks : int;
  dirty_max_blocks : int;
  extent_cache_limit : int;
  tie_random : bool;
  jitter : float;
  loss : float;
  dup : float;
  phases : phase list;
  load : load option;
      (* Optional open-loop tail segment (lib/load): after the phases
         go quiescent, an arrival-scheduled stream of page writes with
         bounded backlog and client churn runs against the same file,
         still under the shadow oracle and the determinism double-run. *)
  migrations : migration list;
      (* Epoch-fenced lock-namespace migrations (DESIGN.md §15) fired
         while the phase traffic runs: at [mg_after] seconds, stripe
         [mg_stripe mod stripes]'s resource is rehomed to server
         [mg_dst mod n_servers].  Moves whose endpoints are not Up, or
         that fire before the shared file exists, are skipped. *)
  repl : int;
      (* Grant-log replication factor (DESIGN.md §16): f backups per
         lock server, 0 = unreplicated.  Online crashes then recover
         through election + log replay instead of the client gather. *)
  partitions : partition list;
      (* Lossy-partition windows: at [pt_at], server
         [pt_server mod n_servers]'s client-facing endpoints (lock, ctl,
         data — never hb or the repl shipping endpoints) drop/duplicate
         fenced messages at [pt_loss]/[pt_dup] until [pt_at + pt_dur],
         then heal back to the case's baseline fault rates. *)
  dbl : (int * float) option;
      (* Double failure: in each phase with a [crash_mid], also kill
         server [fst mod n_servers] (bumped past the first victim)
         [snd] seconds after the first crash — landing the second
         failover inside the first's detection/recovery window.  Inert
         when no phase has a mid-crash or the cluster has one server. *)
}

type analytic = { a_clients : int; a_bytes : int }
type kind = Sim of sim | Analytic of analytic
type t = { seed : int; params : Netsim.Params.t; kind : kind }

let policies =
  [|
    Seqdlm.Policy.seqdlm;
    Seqdlm.Policy.dlm_basic;
    Seqdlm.Policy.dlm_lustre;
    Seqdlm.Policy.dlm_datatype;
  |]

let policy_of (s : sim) = policies.(s.policy_idx mod Array.length policies)

let sim_op_count (s : sim) =
  List.fold_left
    (fun acc p -> Array.fold_left (fun acc l -> acc + List.length l) acc p.ops)
    0 s.phases

let op_count t =
  match t.kind with Analytic a -> a.a_clients | Sim s -> sim_op_count s

let client_count t =
  match t.kind with Analytic a -> a.a_clients | Sim s -> s.n_clients

let crash_count t =
  match t.kind with
  | Analytic _ -> 0
  | Sim s ->
      List.fold_left
        (fun acc p -> acc + match p.crash_server with Some _ -> 1 | None -> 0)
        0 s.phases

let mid_crash_count t =
  match t.kind with
  | Analytic _ -> 0
  | Sim s ->
      List.fold_left
        (fun acc p -> acc + match p.crash_mid with Some _ -> 1 | None -> 0)
        0 s.phases

let migration_count t =
  match t.kind with Analytic _ -> 0 | Sim s -> List.length s.migrations

let partition_count t =
  match t.kind with Analytic _ -> 0 | Sim s -> List.length s.partitions

(* Does this case need the fenced transport (retries, failover)? *)
let online (s : sim) =
  s.loss > 0. || s.dup > 0.
  || (match s.partitions with [] -> false | _ :: _ -> true)
  || List.exists (fun p -> Option.is_some p.crash_mid) s.phases

let summary t =
  match t.kind with
  | Analytic a ->
      Printf.sprintf "seed %d: analytic, %d conflicting PW writers x %s" t.seed
        a.a_clients
        (Ccpfs_util.Units.bytes_to_string a.a_bytes)
  | Sim s ->
      Printf.sprintf
        "seed %d: %s, %d client(s) x %d server(s), %d stripe(s), %d phase(s), \
         %d op(s), %d crash(es), %d mid-crash(es)%s"
        t.seed (policy_of s).Seqdlm.Policy.name s.n_clients s.n_servers
        s.stripes (List.length s.phases) (sim_op_count s) (crash_count t)
        (mid_crash_count t)
        ((if s.loss > 0. || s.dup > 0. then
            Printf.sprintf ", loss %.3f dup %.3f" s.loss s.dup
          else "")
        ^ (match s.migrations with
          | [] -> ""
          | ms -> Printf.sprintf ", %d migration(s)" (List.length ms))
        ^ (if s.repl > 0 then Printf.sprintf ", repl f=%d" s.repl else "")
        ^ (match s.partitions with
          | [] -> ""
          | ps -> Printf.sprintf ", %d partition(s)" (List.length ps))
        ^ (match s.dbl with
          | Some _ -> ", double-failure"
          | None -> "")
        ^
        match s.load with
        | Some l ->
            Printf.sprintf ", load(%s %.3g/s x%d cap %d churn %d)"
              (match l.l_process mod 3 with
              | 0 -> "const"
              | 1 -> "poisson"
              | _ -> "mmpp")
              l.l_rate l.l_requests l.l_cap
              (List.length l.l_churn)
        | None -> "")

let pp_op ppf = function
  | Write { block; blocks } ->
      Format.fprintf ppf "write[%d,+%d)" block blocks
  | Read { block; blocks } -> Format.fprintf ppf "read[%d,+%d)" block blocks
  | Append { blocks } -> Format.fprintf ppf "append(+%d)" blocks
  | Truncate { blocks } -> Format.fprintf ppf "truncate(->%d)" blocks

let pp ppf t =
  Format.fprintf ppf "@[<v>%s@," (summary t);
  (match t.kind with
  | Analytic _ -> ()
  | Sim s ->
      Format.fprintf ppf
        "  dirty %d/%d pages, extent-cache limit %d, tie_random %b, jitter \
         %gs, loss %g, dup %g@,"
        s.dirty_min_blocks s.dirty_max_blocks s.extent_cache_limit s.tie_random
        s.jitter s.loss s.dup;
      (match s.load with
      | Some l ->
          Format.fprintf ppf
            "  load: process %d, %g req/s, %d request(s), cap %d@," l.l_process
            l.l_rate l.l_requests l.l_cap;
          List.iter
            (fun ch ->
              Format.fprintf ppf "    churn: client %d %s at +%gs@,"
                ch.ch_client
                (if ch.ch_up then "up" else "down")
                ch.ch_at)
            l.l_churn
      | None -> ());
      List.iter
        (fun m ->
          Format.fprintf ppf "  migration: stripe %d -> server %d at +%gs@,"
            m.mg_stripe m.mg_dst m.mg_after)
        s.migrations;
      if s.repl > 0 then Format.fprintf ppf "  replication: f=%d@," s.repl;
      List.iter
        (fun p ->
          Format.fprintf ppf
            "  partition: server %d at +%gs for %gs (loss %g, dup %g)@,"
            p.pt_server p.pt_at p.pt_dur p.pt_loss p.pt_dup)
        s.partitions;
      (match s.dbl with
      | Some (srv, d) ->
          Format.fprintf ppf
            "  double failure: also crash server %d +%gs after each \
             mid-crash@,"
            srv d
      | None -> ());
      List.iteri
        (fun pi (p : phase) ->
          Format.fprintf ppf "  phase %d%s%s:@," pi
            (match p.crash_mid with
            | Some (srv, d) ->
                Printf.sprintf " (crash server %d at +%gs)" srv d
            | None -> "")
            (match p.crash_server with
            | Some srv -> Printf.sprintf " (then crash server %d)" srv
            | None -> "");
          Array.iteri
            (fun ci ops ->
              if ops <> [] then begin
                Format.fprintf ppf "    client %d: " ci;
                List.iteri
                  (fun i op ->
                    if i > 0 then Format.fprintf ppf ", ";
                    pp_op ppf op)
                  ops;
                Format.fprintf ppf "@,"
              end)
            p.ops)
        s.phases);
  Format.fprintf ppf "@]"

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let op_to_json op =
  let open Obs.Json in
  match op with
  | Write { block; blocks } ->
      Obj [ ("op", Str "write"); ("block", Int block); ("blocks", Int blocks) ]
  | Read { block; blocks } ->
      Obj [ ("op", Str "read"); ("block", Int block); ("blocks", Int blocks) ]
  | Append { blocks } -> Obj [ ("op", Str "append"); ("blocks", Int blocks) ]
  | Truncate { blocks } ->
      Obj [ ("op", Str "truncate"); ("blocks", Int blocks) ]

let params_to_json (p : Netsim.Params.t) =
  let open Obs.Json in
  Obj
    [
      ("rtt", Float p.rtt);
      ("b_net", Float p.b_net);
      ("server_ops", Float p.server_ops);
      ("b_disk", Float p.b_disk);
      ("b_mem", Float p.b_mem);
      ("ctl_msg_bytes", Int p.ctl_msg_bytes);
      ("bulk_threshold", Int p.bulk_threshold);
      ("client_io_overhead", Float p.client_io_overhead);
    ]

let to_json t =
  let open Obs.Json in
  let kind =
    match t.kind with
    | Analytic a ->
        Obj
          [
            ("kind", Str "analytic");
            ("clients", Int a.a_clients);
            ("bytes", Int a.a_bytes);
          ]
    | Sim s ->
        Obj
          [
            ("kind", Str "sim");
            ("policy", Str (policy_of s).Seqdlm.Policy.name);
            ("policy_idx", Int s.policy_idx);
            ("n_servers", Int s.n_servers);
            ("n_clients", Int s.n_clients);
            ("stripes", Int s.stripes);
            ("stripe_blocks", Int s.stripe_blocks);
            ("dirty_min_blocks", Int s.dirty_min_blocks);
            ("dirty_max_blocks", Int s.dirty_max_blocks);
            ("extent_cache_limit", Int s.extent_cache_limit);
            ("tie_random", Bool s.tie_random);
            ("jitter", Float s.jitter);
            ("loss", Float s.loss);
            ("dup", Float s.dup);
            ( "load",
              match s.load with
              | None -> Null
              | Some l ->
                  Obj
                    [
                      ("rate", Float l.l_rate);
                      ("process", Int l.l_process);
                      ("requests", Int l.l_requests);
                      ("cap", Int l.l_cap);
                      ( "churn",
                        List
                          (List.map
                             (fun ch ->
                               Obj
                                 [
                                   ("at", Float ch.ch_at);
                                   ("client", Int ch.ch_client);
                                   ("up", Bool ch.ch_up);
                                 ])
                             l.l_churn) );
                    ] );
            ( "migrations",
              List
                (List.map
                   (fun m ->
                     Obj
                       [
                         ("stripe", Int m.mg_stripe);
                         ("dst", Int m.mg_dst);
                         ("after", Float m.mg_after);
                       ])
                   s.migrations) );
            ("repl", Int s.repl);
            ( "partitions",
              List
                (List.map
                   (fun p ->
                     Obj
                       [
                         ("server", Int p.pt_server);
                         ("at", Float p.pt_at);
                         ("dur", Float p.pt_dur);
                         ("loss", Float p.pt_loss);
                         ("dup", Float p.pt_dup);
                       ])
                   s.partitions) );
            ( "dbl",
              match s.dbl with
              | Some (srv, d) ->
                  Obj [ ("server", Int srv); ("after", Float d) ]
              | None -> Null );
            ( "phases",
              List
                (List.map
                   (fun (p : phase) ->
                     Obj
                       [
                         ( "ops",
                           List
                             (Array.to_list p.ops
                             |> List.map (fun ops ->
                                    List (List.map op_to_json ops))) );
                         ( "crash_server",
                           match p.crash_server with
                           | Some s -> Int s
                           | None -> Null );
                         ( "crash_mid",
                           match p.crash_mid with
                           | Some (srv, d) ->
                               Obj [ ("server", Int srv); ("after", Float d) ]
                           | None -> Null );
                       ])
                   s.phases) );
          ]
  in
  Obj [ ("seed", Int t.seed); ("params", params_to_json t.params); ("case", kind) ]

(* ------------------------------------------------------------------ *)
(* OCaml regression-test skeleton                                      *)
(* ------------------------------------------------------------------ *)

let ml_float f =
  if f = infinity then "infinity"
  else if f = neg_infinity then "neg_infinity"
  else if Float.is_nan f then "nan"
  else Printf.sprintf "%h" f

let ml_op = function
  | Write { block; blocks } ->
      Printf.sprintf "Write { block = %d; blocks = %d }" block blocks
  | Read { block; blocks } ->
      Printf.sprintf "Read { block = %d; blocks = %d }" block blocks
  | Append { blocks } -> Printf.sprintf "Append { blocks = %d }" blocks
  | Truncate { blocks } -> Printf.sprintf "Truncate { blocks = %d }" blocks

let to_ocaml_test t =
  let b = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "(* Minimized fuzz failure; replay: ccpfs_run fuzz --seed %d *)\n" t.seed;
  add "let test_fuzz_seed_%d () =\n" (abs t.seed);
  add "  let open Fuzz.Case in\n";
  add "  let params =\n";
  add
    "    { Netsim.Params.rtt = %s; b_net = %s; server_ops = %s; b_disk = %s;\n"
    (ml_float t.params.rtt) (ml_float t.params.b_net)
    (ml_float t.params.server_ops)
    (ml_float t.params.b_disk);
  add "      b_mem = %s; ctl_msg_bytes = %d; bulk_threshold = %d;\n"
    (ml_float t.params.b_mem) t.params.ctl_msg_bytes t.params.bulk_threshold;
  add "      client_io_overhead = %s }\n" (ml_float t.params.client_io_overhead);
  add "  in\n";
  (match t.kind with
  | Analytic a ->
      add "  let kind = Analytic { a_clients = %d; a_bytes = %d } in\n"
        a.a_clients a.a_bytes
  | Sim s ->
      add "  let kind =\n    Sim\n";
      add "      { policy_idx = %d; n_servers = %d; n_clients = %d;\n"
        s.policy_idx s.n_servers s.n_clients;
      add "        stripes = %d; stripe_blocks = %d; dirty_min_blocks = %d;\n"
        s.stripes s.stripe_blocks s.dirty_min_blocks;
      add "        dirty_max_blocks = %d; extent_cache_limit = %d;\n"
        s.dirty_max_blocks s.extent_cache_limit;
      add "        tie_random = %b; jitter = %s;\n" s.tie_random
        (ml_float s.jitter);
      add "        loss = %s; dup = %s;\n" (ml_float s.loss) (ml_float s.dup);
      (match s.load with
      | None -> add "        load = None;\n"
      | Some l ->
          add
            "        load =\n\
            \          Some\n\
            \            { l_rate = %s; l_process = %d; l_requests = %d;\n\
            \              l_cap = %d;\n\
            \              l_churn =\n\
            \                [ %s ] };\n"
            (ml_float l.l_rate) l.l_process l.l_requests l.l_cap
            (String.concat ";\n                  "
               (List.map
                  (fun ch ->
                    Printf.sprintf
                      "{ ch_at = %s; ch_client = %d; ch_up = %b }"
                      (ml_float ch.ch_at) ch.ch_client ch.ch_up)
                  l.l_churn)));
      (match s.migrations with
      | [] -> add "        migrations = [];\n"
      | ms ->
          add "        migrations =\n          [ %s ];\n"
            (String.concat ";\n            "
               (List.map
                  (fun m ->
                    Printf.sprintf
                      "{ mg_stripe = %d; mg_dst = %d; mg_after = %s }"
                      m.mg_stripe m.mg_dst (ml_float m.mg_after))
                  ms)));
      add "        repl = %d;\n" s.repl;
      (match s.partitions with
      | [] -> add "        partitions = [];\n"
      | ps ->
          add "        partitions =\n          [ %s ];\n"
            (String.concat ";\n            "
               (List.map
                  (fun p ->
                    Printf.sprintf
                      "{ pt_server = %d; pt_at = %s; pt_dur = %s;\n\
                      \              pt_loss = %s; pt_dup = %s }"
                      p.pt_server (ml_float p.pt_at) (ml_float p.pt_dur)
                      (ml_float p.pt_loss) (ml_float p.pt_dup))
                  ps)));
      add "        dbl = %s;\n"
        (match s.dbl with
        | Some (srv, d) -> Printf.sprintf "Some (%d, %s)" srv (ml_float d)
        | None -> "None");
      add "        phases =\n          [\n";
      List.iter
        (fun (p : phase) ->
          add "            { ops =\n                [|\n";
          Array.iter
            (fun ops ->
              add "                  [ %s ];\n"
                (String.concat "; " (List.map ml_op ops)))
            p.ops;
          add "                |];\n";
          add "              crash_server = %s;\n"
            (match p.crash_server with
            | Some srv -> Printf.sprintf "Some %d" srv
            | None -> "None");
          add "              crash_mid = %s };\n"
            (match p.crash_mid with
            | Some (srv, d) -> Printf.sprintf "Some (%d, %s)" srv (ml_float d)
            | None -> "None"))
        s.phases;
      add "          ] }\n";
      add "  in\n");
  add "  let case = { Fuzz.Case.seed = %d; params; kind } in\n" t.seed;
  add "  ignore (Fuzz.Exec.run case)\n";
  Buffer.contents b
