(** The fuzz campaign driver behind [ccpfs_run fuzz] and the CI smoke
    job: generate-execute-shrink over a contiguous seed range. *)

type failure = {
  seed : int;
  case : Case.t;  (** as generated *)
  reason : string;
  shrunk : Case.t;
  shrunk_reason : string;
  shrink_reruns : int;
}

type summary = {
  tested : int;  (** seeds executed (stops at the first failure) *)
  sims : int;
  analytics : int;
  fingerprint : int64;
      (** FNV-1a fold, in seed order, of every passing case's
          {!Exec.outcome} fingerprint: one number that moves when any
          executed case's event stream does *)
  failure : failure option;
}

val run_range :
  ?inject:Exec.inject -> ?faults:bool -> ?shrink_budget:int ->
  ?progress:(int -> int -> unit) -> base:int -> count:int -> unit -> summary
(** Execute seeds [base .. base+count-1] in order, stopping at (and
    minimizing) the first failure.  [progress done total] is called
    after every case.  [~faults:true] forces every case into the online
    fault mode (message loss + a mid-phase server crash), see
    {!Gen.of_seed}. *)

val repro_hint : failure -> string
(** The replay command line: ["ccpfs_run fuzz --seed N --shrink"]. *)

val repro_json : failure -> Obs.Json.t
(** The [FUZZ_repro.json] document: seed, reason, replay command, the
    minimized case and a paste-ready OCaml regression test. *)

val result_row :
  ?inject:Exec.inject -> faults:bool -> base:int -> summary -> Obs.Json.t
(** The one row of [BENCH_fuzz.json] (schema ["ccpfs.fuzz/1"]): the
    seed range, the flags it ran with, the case split, the first failing
    seed and the corpus fingerprint. *)
