(** The typed segments of a fuzz case, held in execution order by
    {!Case.sim}.  Every kind's summary fragment, [pp] line, JSON, OCaml
    literal and smaller versions sit next to its type here; [Gen]'s
    draw and [Exec]'s install match are the only other places a kind
    appears. *)

(** One client operation, in cache pages (4 KiB, the lock-alignment
    granularity), so cases explore conflict structure rather than
    sub-page alignment noise. *)
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
          phase, while requests are in flight; [lib/ha] recovers it *)
}
(** Every client runs its ops against the shared file, to quiescence. *)

type churn = {
  ch_at : float;  (** seconds after the load segment starts *)
  ch_client : int;  (** taken mod the client count *)
  ch_up : bool;
}

type load = {
  l_rate : float;  (** mean offered rate, requests/second *)
  l_process : int;  (** mod 3: 0 constant, 1 Poisson, 2 MMPP *)
  l_requests : int;  (** arrivals to inject *)
  l_cap : int;  (** in-flight cap before shedding *)
  l_churn : churn list;
}
(** Open-loop page writes at scheduled arrival times ([Load.Driver]);
    every arrival must complete or be counted shed. *)

type migration = {
  mg_stripe : int;  (** taken mod the stripe count *)
  mg_dst : int;  (** taken mod the server count *)
  mg_after : float;  (** seconds after the simulation starts *)
}
(** An epoch-fenced lock-namespace migration (DESIGN.md §15), skipped
    when the shared file does not exist yet or either end is not Up. *)

type partition = {
  pt_server : int;  (** taken mod the server count *)
  pt_at : float;  (** seconds after the simulation starts *)
  pt_dur : float;  (** window length, seconds *)
  pt_loss : float;
  pt_dup : float;
}
(** A lossy window on one server's client-facing endpoints (never
    heartbeat or grant-log shipping), healing to the baseline rates. *)

type double_failure = {
  df_server : int;  (** taken mod the server count, bumped past the first *)
  df_after : float;  (** seconds after the first victim's crash *)
}
(** Arms each later phase with a [crash_mid] to kill a second server
    inside the first failover's window; inert with one server. *)

type t =
  | Phase of phase
  | Load of load
  | Migration of migration
  | Partition of partition
  | Double_failure of double_failure

type kind = [ `Phase | `Load | `Migration | `Partition | `Double_failure ]

val kinds : kind list
(** Oldest first: the order the generator first drew each kind in. *)

val kind : t -> kind
val is : kind -> t -> bool

val kind_name : kind -> string
(** The ["kind"] field of the segment's JSON. *)

val op_count : t -> int

val online : t -> bool
(** Needs the fenced transport: a partition or a mid-phase crash. *)

val drop_client : int -> t -> t
(** Without client [i]'s ops; higher client indices shift down. *)

val numbered : t list -> (int * t) list
(** Each segment with its index among the segments of its kind. *)

val summary : loss_dup:string -> repl:string -> t list -> string
(** The summary line after the layout.  Its order is pinned by the
    describe goldens and interleaves the shape's [loss_dup] and [repl]
    fragments where they were first printed. *)

val pp : Format.formatter -> int * t -> unit
val to_json : t -> Obs.Json.t

val to_ml : t -> string
(** An OCaml expression with [Fuzz.Segment] open; floats in hex. *)

val ml_float : float -> string

val smaller : t -> t list
(** The segment's own simplifications, most aggressive first. *)
