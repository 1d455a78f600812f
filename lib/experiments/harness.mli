(** Shared machinery of the experiment reproductions: build a cluster,
    drive a workload's access stream from every client, measure the
    paper's two phases — parallel IO (PIO: writes returning from the
    client cache) and flushing (F: the explicit drain at the end) — and
    aggregate the lock/IO instrumentation the figures plot. *)

type result = {
  pio : float;  (** seconds of the parallel-IO phase *)
  f : float;  (** seconds of the final flush phase *)
  bytes : int;  (** payload written during PIO *)
  bandwidth : float;  (** bytes / pio *)
  locking : float;  (** summed client lock-wait seconds *)
  cache_io : float;  (** summed client cache-insert seconds *)
  lock_stats : Seqdlm.Lock_server.stats;  (** summed over lock servers *)
  ops : int;  (** client operations during PIO *)
}

val run_streams :
  ?params:Netsim.Params.t -> ?config:Ccpfs.Config.t ->
  ?policy:Seqdlm.Policy.t -> ?mode:Seqdlm.Mode.t -> ?lock_whole_range:bool ->
  ?stripe_size:int -> servers:int -> stripes:int ->
  streams:(string * Workloads.Access.t list) array -> unit -> result
(** One client per stream element; each stream is (file path, ordered
    accesses).  Files are created with [stripes] stripes (N-N streams
    simply name distinct paths).  [mode] pins the write lock mode
    (microbenchmarks); otherwise Fig. 10 selection applies. *)

val run :
  name:string -> (unit -> Ccpfs.Cluster.t) ->
  (Ccpfs.Cluster.t -> unit -> 'a) -> int * Ccpfs.Cluster.t * 'a
(** [run ~name create launch] is every experiment's measured run: build
    the cluster with [create], attach a trace sink when [--trace] was
    requested and the protocol sanitizer when it is enabled, then call
    [launch] to start the workload.  The continuation [launch] returns
    runs once the engine has drained and before the final [fsync_all]:
    that is where PIO is read and background processes are stopped.
    The invariant sweeps follow the fsync.  Metrics stay opt-in: a
    [launch] that records them calls [Obs.Metrics.enable].  Under
    [CCPFS_CHECK=full] the whole pass runs twice inside the determinism
    double-run named [name], and the second pass is kept.  Returns the
    run id (taken once per measured run), the kept cluster and the
    continuation's result. *)

val write_rows : schema:string -> path:string -> Obs.Json.t list -> int
(** Write [rows] as a fresh [schema] document at [path] and return the
    row count.  Rows the harness accumulated for
    [BENCH_experiments.json] are kept. *)

type spawn = int -> string -> (Ccpfs.Client.t -> unit) -> unit
(** [spawn i name body] runs [body] as a process on client [i], tracked
    as an application writer for PIO accounting. *)

val run_custom :
  ?params:Netsim.Params.t -> ?config:Ccpfs.Config.t ->
  ?policy:Seqdlm.Policy.t -> servers:int -> clients:int ->
  (Ccpfs.Cluster.t -> spawn -> unit) ->
  (Ccpfs.Cluster.t -> result -> 'a) -> 'a
(** Full control.  [setup] launches the application processes through the
    given tracked [spawn].  PIO ends when the last tracked process
    finishes — asynchronous flushing still in flight afterwards is
    charged to the F phase together with the final fsync drain, exactly
    like the paper's PIO/F split ("the write performance that
    applications can see"). *)

val scaled : scale:float -> int -> int
(** [scaled ~scale n] = max 1 (round (n·scale)). *)

val speedup : float -> float -> string
(** "[4.2x]" — convenience for table notes. *)
