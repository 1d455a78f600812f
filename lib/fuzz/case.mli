(** A fuzz case: everything one randomized cluster run depends on,
    as a first-class value.

    Cases are normally derived from a seed by {!Gen.of_seed}, but the
    type is plain data so the shrinker can edit it and regression tests
    can embed a minimized case literally (see {!to_ocaml_test}). *)

(** One client operation.  Offsets and lengths are in units of the cache
    page (4 KiB) — the lock-alignment granularity, so fuzz cases explore
    conflict structure rather than sub-page alignment noise. *)
type op =
  | Write of { block : int; blocks : int }
  | Read of { block : int; blocks : int }
  | Append of { blocks : int }
  | Truncate of { blocks : int }  (** new size *)

type phase = {
  ops : op list array;  (** per client, index = client id *)
  crash_server : int option;
      (** crash and recover this server after the phase completes *)
  crash_mid : (int * float) option;
      (** [(server, delay)]: kill this server [delay] seconds into the
          phase, {e while client requests are in flight} — failure
          detection and online recovery ([lib/ha]) bring it back *)
}

type churn = {
  ch_at : float;  (** seconds after the load segment starts *)
  ch_client : int;  (** taken mod the case's client count at run time *)
  ch_up : bool;
}
(** A client-rotation event inside a load segment (see
    [Load.Driver.churn_event]): a leaving client drains its queue but
    stops receiving new arrivals. *)

type load = {
  l_rate : float;  (** mean offered rate, requests/second *)
  l_process : int;  (** mod 3: 0 constant, 1 Poisson, 2 MMPP *)
  l_requests : int;  (** arrivals to inject *)
  l_cap : int;  (** in-flight cap before shedding *)
  l_churn : churn list;
}
(** An open-loop load segment, run after the case's phases go quiescent:
    page writes to the same shared file at scheduled arrival times
    through [Load.Driver], still under the shadow oracle and the
    determinism double-run.  Exercises arrival-time event scheduling,
    backlog shedding and churn routing inside randomized cluster
    configurations. *)

type migration = {
  mg_stripe : int;  (** taken mod the case's stripe count at run time *)
  mg_dst : int;  (** taken mod the case's server count at run time *)
  mg_after : float;  (** seconds after the simulation starts *)
}
(** An epoch-fenced lock-namespace migration (DESIGN.md §15) fired while
    the phase traffic runs: the stripe's resource is rehomed onto
    [mg_dst] through [Cluster.migrate_resource].  Fired moves are
    skipped when the shared file does not exist yet or either end is not
    Up; the coordinator itself may also abort (source crashed mid-drain,
    target went down, force-sync pinning). *)

type partition = {
  pt_server : int;  (** taken mod the case's server count at run time *)
  pt_at : float;  (** seconds after the simulation starts *)
  pt_dur : float;  (** window length, seconds *)
  pt_loss : float;  (** loss probability inside the window, [0..1] *)
  pt_dup : float;  (** duplication probability inside the window *)
}
(** A lossy-partition window: for [pt_dur] seconds the server's
    client-facing endpoints (lock, ctl, data — never the heartbeat or
    the grant-log shipping endpoints) drop and duplicate fenced traffic
    at the given rates, then heal back to the case's baseline [loss] and
    [dup].  Exercises retry storms, at-most-once dedup and epoch fencing
    without taking the server formally down. *)

(** A randomized cluster run: every client executes its per-phase op
    list against one shared file; phases run to quiescence in turn, with
    optional lock-server crash+recovery between them. *)
type sim = {
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
  loss : float;  (** fenced-RPC message-loss probability, [0..1] *)
  dup : float;  (** fenced-RPC duplication probability, [0..1] *)
  phases : phase list;
  load : load option;
      (** optional open-loop tail segment; drawn after every other field
          so pre-existing seeds keep their shapes *)
  migrations : migration list;
      (** mid-run lock-namespace migrations; drawn after [load] so
          pre-sharding seeds keep their shapes *)
  repl : int;
      (** grant-log replication factor (DESIGN.md §16): [repl] backups
          per lock server, 0 = unreplicated.  Online crashes of a
          replicated server recover through election + log replay
          instead of the §IV-C2 client gather. *)
  partitions : partition list;
      (** lossy-partition windows on one server's client-facing
          endpoints; forces the fenced transport on *)
  dbl : (int * float) option;
      (** [(server, extra_delay)] double failure: in each phase with a
          [crash_mid], also kill [server mod n_servers] (bumped past the
          first victim) [extra_delay] seconds after the first crash, so
          the second failover lands inside the first's
          detection/recovery window.  The repl/partition/double-failure
          trio is the newest draw layer, at the very tail of the rng
          stream (after even [migrations]). *)
}

(** A no-contention-structure validation case: N fully-conflicting PW
    writes of D bytes under the basic DLM, checked against Eq. (1). *)
type analytic = { a_clients : int; a_bytes : int }

type kind = Sim of sim | Analytic of analytic

type t = { seed : int; params : Netsim.Params.t; kind : kind }

val policies : Seqdlm.Policy.t array
(** The four §V-A lock managers, in a fixed order. *)

val policy_of : sim -> Seqdlm.Policy.t

val op_count : t -> int
(** Total client operations (analytic cases count one write per client). *)

val client_count : t -> int
val crash_count : t -> int

val mid_crash_count : t -> int
(** Mid-phase (online) crashes, counted separately from the quiescent
    [crash_server] ones. *)

val migration_count : t -> int
val partition_count : t -> int

val online : sim -> bool
(** True when the case needs the fenced transport: any message faults,
    any partition window, or any mid-phase crash. *)

val summary : t -> string
(** One-line human description for progress logs. *)

val pp : Format.formatter -> t -> unit
(** Multi-line dump (failure reports). *)

val to_json : t -> Obs.Json.t

val to_ocaml_test : t -> string
(** An OCaml test-skeleton fragment that replays this exact case through
    [Fuzz.Exec.run] — what the shrinker emits for a minimized failure so
    it can be pasted into the regression suite.  Floats are printed as
    hex literals to round-trip exactly. *)
