(** A fuzz case: everything one randomized cluster run depends on,
    as a first-class value.

    Cases are normally derived from a seed by {!Gen.of_seed}, but the
    type is plain data so the shrinker can edit it and regression tests
    can embed a minimized case literally (see {!to_ocaml_test}). *)

(** The cluster a simulated case runs on. *)
type shape = {
  policy_idx : int;  (** index into {!policies} *)
  n_servers : int;
  n_clients : int;
  stripes : int;
  stripe_blocks : int;  (** stripe size, pages *)
  dirty_min_blocks : int;  (** voluntary-flush threshold, pages *)
  dirty_max_blocks : int;  (** writer-blocking threshold, pages *)
  extent_cache_limit : int;
  tie_random : bool;  (** random (legal) choice among same-time events *)
  jitter : float;  (** extra random event delay, seconds; 0 = none *)
  loss : float;  (** baseline fenced-RPC message-loss probability *)
  dup : float;  (** baseline fenced-RPC duplication probability *)
  repl : int;
      (** grant-log replication factor (DESIGN.md §16): [repl] backups
          per lock server, 0 = unreplicated.  Online crashes of a
          replicated server recover through election + log replay
          instead of the §IV-C2 client gather. *)
}

type sim = {
  shape : shape;
  segments : Segment.t list;  (** in execution order *)
}
(** A randomized cluster run: the segments run in turn on one cluster
    against one shared file. *)

(** A no-contention-structure validation case: N fully-conflicting PW
    writes of D bytes under the basic DLM, checked against Eq. (1). *)
type analytic = { a_clients : int; a_bytes : int }

type kind = Sim of sim | Analytic of analytic

type t = { seed : int; params : Netsim.Params.t; kind : kind }

val policies : Seqdlm.Policy.t array
(** The four §V-A lock managers, in a fixed order. *)

val policy_of : shape -> Seqdlm.Policy.t

val count : (Segment.t -> bool) -> t -> int
(** Segments satisfying the predicate (0 for analytic cases), e.g.
    [count (Segment.is `Migration)]. *)

val op_count : t -> int
(** Total client operations (analytic cases count one write per client). *)

val client_count : t -> int

val online : sim -> bool
(** True when the case needs the fenced transport: baseline message
    faults or any {!Segment.online} segment. *)

val summary : t -> string
(** One-line human description for progress logs and [--describe]. *)

val pp : Format.formatter -> t -> unit
(** Multi-line dump (failure reports). *)

val to_json : t -> Obs.Json.t

val to_ocaml_test : t -> string
(** OCaml source that defines this exact case as [case_N] and a test
    [test_fuzz_seed_N] replaying it through [Fuzz.Exec.run] — what the
    shrinker emits for a minimized failure so it can be pasted into the
    regression suite. *)
