type shape = {
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
  repl : int;
}

type sim = { shape : shape; segments : Segment.t list }
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

let policy_of (s : shape) = policies.(s.policy_idx mod Array.length policies)

let count p t =
  match t.kind with
  | Analytic _ -> 0
  | Sim s -> List.length (List.filter p s.segments)

let op_count t =
  match t.kind with
  | Analytic a -> a.a_clients
  | Sim s -> List.fold_left (fun acc seg -> acc + Segment.op_count seg) 0 s.segments

let client_count t =
  match t.kind with Analytic a -> a.a_clients | Sim s -> s.shape.n_clients

let online { shape = s; segments } =
  s.loss > 0. || s.dup > 0. || List.exists Segment.online segments

let summary t =
  match t.kind with
  | Analytic a ->
      Printf.sprintf "seed %d: analytic, %d conflicting PW writers x %s" t.seed
        a.a_clients
        (Ccpfs_util.Units.bytes_to_string a.a_bytes)
  | Sim { shape = s; segments } ->
      Printf.sprintf "seed %d: %s, %d client(s) x %d server(s), %d stripe(s), %s"
        t.seed (policy_of s).Seqdlm.Policy.name s.n_clients s.n_servers
        s.stripes
        (Segment.summary
           ~loss_dup:
             (if s.loss > 0. || s.dup > 0. then
                Printf.sprintf ", loss %.3f dup %.3f" s.loss s.dup
              else "")
           ~repl:(if s.repl > 0 then Printf.sprintf ", repl f=%d" s.repl else "")
           segments)

let pp ppf t =
  Format.fprintf ppf "@[<v>%s@," (summary t);
  (match t.kind with
  | Analytic _ -> ()
  | Sim { shape = s; segments } ->
      Format.fprintf ppf
        "  dirty %d/%d pages, extent-cache limit %d, tie_random %b, jitter \
         %gs, loss %g, dup %g, repl %d@,"
        s.dirty_min_blocks s.dirty_max_blocks s.extent_cache_limit s.tie_random
        s.jitter s.loss s.dup s.repl;
      List.iter (Segment.pp ppf) (Segment.numbered segments));
  Format.fprintf ppf "@]"

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
    | Sim { shape = s; segments } ->
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
            ("repl", Int s.repl);
            ("segments", List (List.map Segment.to_json segments));
          ]
  in
  Obj [ ("seed", Int t.seed); ("params", params_to_json t.params); ("case", kind) ]

let to_ocaml_test t =
  let b = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let fl = Segment.ml_float and p = t.params in
  let n = abs t.seed in
  add "(* Minimized fuzz failure; replay: ccpfs_run fuzz --seed %d *)\n" t.seed;
  add "let case_%d =\n  let open Fuzz.Case in\n" n;
  (match t.kind with
  | Sim _ -> add "  let open Fuzz.Segment in\n"
  | Analytic _ -> ());
  add "  {\n    seed = %d;\n    params =\n" t.seed;
  add "      { Netsim.Params.rtt = %s; b_net = %s; server_ops = %s;\n"
    (fl p.rtt) (fl p.b_net) (fl p.server_ops);
  add "        b_disk = %s; b_mem = %s; ctl_msg_bytes = %d;\n" (fl p.b_disk)
    (fl p.b_mem) p.ctl_msg_bytes;
  add "        bulk_threshold = %d; client_io_overhead = %s };\n"
    p.bulk_threshold (fl p.client_io_overhead);
  (match t.kind with
  | Analytic a ->
      add "    kind = Analytic { a_clients = %d; a_bytes = %d };\n" a.a_clients
        a.a_bytes
  | Sim { shape = s; segments } ->
      add "    kind =\n      Sim\n        { shape =\n";
      add "            { policy_idx = %d; n_servers = %d; n_clients = %d;\n"
        s.policy_idx s.n_servers s.n_clients;
      add "              stripes = %d; stripe_blocks = %d;\n" s.stripes
        s.stripe_blocks;
      add "              dirty_min_blocks = %d; dirty_max_blocks = %d;\n"
        s.dirty_min_blocks s.dirty_max_blocks;
      add "              extent_cache_limit = %d; tie_random = %b;\n"
        s.extent_cache_limit s.tie_random;
      add "              jitter = %s; loss = %s; dup = %s; repl = %d };\n"
        (fl s.jitter) (fl s.loss) (fl s.dup) s.repl;
      add "          segments =\n            [\n";
      List.iter
        (fun seg ->
          add "              %s;\n"
            (String.concat "\n              "
               (String.split_on_char '\n' (Segment.to_ml seg))))
        segments;
      add "            ] };\n");
  add "  }\n\nlet test_fuzz_seed_%d () = ignore (Fuzz.Exec.run case_%d)\n" n n;
  Buffer.contents b
