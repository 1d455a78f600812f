type failure = {
  seed : int;
  case : Case.t;
  reason : string;
  shrunk : Case.t;
  shrunk_reason : string;
  shrink_reruns : int;
}

type summary = {
  tested : int;
  sims : int;
  analytics : int;
  fingerprint : int64;
  failure : failure option;
}

(* FNV-1a over the eight bytes of each case fingerprint, in seed order. *)
let fnv_prime = 0x100000001b3L
let fnv_offset = 0xcbf29ce484222325L

let fold_fingerprint h fp =
  let h = ref h in
  for i = 0 to 7 do
    let b = Int64.logand (Int64.shift_right_logical fp (8 * i)) 0xffL in
    h := Int64.mul (Int64.logxor !h b) fnv_prime
  done;
  !h

let run_range ?inject ?(faults = false) ?shrink_budget ?progress ~base ~count
    () =
  let sims = ref 0 and analytics = ref 0 in
  let failure = ref None in
  let fingerprint = ref fnv_offset in
  let k = ref 0 in
  while Option.is_none !failure && !k < count do
    let seed = base + !k in
    let case = Gen.of_seed ~faults seed in
    (match case.Case.kind with
    | Case.Sim _ -> incr sims
    | Case.Analytic _ -> incr analytics);
    (match Exec.catch ?inject case with
    | Ok o -> fingerprint := fold_fingerprint !fingerprint o.Exec.fingerprint
    | Error reason ->
        let shrunk, shrunk_reason, shrink_reruns =
          Shrink.minimize ?inject ?budget:shrink_budget case reason
        in
        failure :=
          Some { seed; case; reason; shrunk; shrunk_reason; shrink_reruns });
    incr k;
    match progress with Some f -> f !k count | None -> ()
  done;
  {
    tested = !k;
    sims = !sims;
    analytics = !analytics;
    fingerprint = !fingerprint;
    failure = !failure;
  }

let repro_hint (f : failure) =
  Printf.sprintf "ccpfs_run fuzz --seed %d --shrink" f.seed

let repro_json (f : failure) =
  let open Obs.Json in
  Obj
    [
      ("schema", Str "ccpfs.fuzz-repro/2");
      ("seed", Int f.seed);
      ("reason", Str f.reason);
      ("replay", Str (repro_hint f));
      ("case", Case.to_json f.case);
      ("shrunk_reason", Str f.shrunk_reason);
      ("shrunk_case", Case.to_json f.shrunk);
      ("shrink_reruns", Int f.shrink_reruns);
      ("ocaml_test", Str (Case.to_ocaml_test f.shrunk));
    ]

let result_row ?inject ~faults ~base (s : summary) =
  let open Obs.Json in
  Obj
    [
      ("base_seed", Int base);
      ("faults", Bool faults);
      ( "inject",
        match inject with
        | Some i -> Str (Exec.inject_to_string i)
        | None -> Null );
      ("tested", Int s.tested);
      ("sim_cases", Int s.sims);
      ("analytic_cases", Int s.analytics);
      ( "failed_seed",
        match s.failure with Some f -> Int f.seed | None -> Null );
      ("corpus_fingerprint", Str (Printf.sprintf "%016Lx" s.fingerprint));
    ]
