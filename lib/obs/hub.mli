(** Process-global observability wiring.

    The CLI drivers see the [--trace] flag; the experiment harness builds
    clusters several layers below without the flag in scope.  The hub is
    the meeting point: drivers {!request_trace} and stamp the current
    experiment with {!set_run_info}; the harness asks {!new_sink} for a
    per-run trace sink (None when tracing is off, so the default path
    stays free) and {!flush_trace} writes everything collected to the
    requested file.  Mirrors the [Check.Sanitize] enable-globals
    pattern. *)

val request_trace : string -> unit
(** Enable trace collection; [string] is the output path. *)

val set_run_info : experiment:string -> scale:float -> unit
(** Stamp the experiment the next sinks/rows belong to; resets the
    per-experiment run counter. *)

val experiment : unit -> string
(** Current experiment id; [""] when none was stamped. *)

val scale : unit -> float

val next_run_id : unit -> int
(** Sequence number of runs under the current experiment (0-based);
    increments on every call. *)

val new_sink : ?label:string -> unit -> Trace.sink option
(** A fresh collecting sink registered for {!flush_trace}, with a unique
    pid and a default label ["<experiment>#<run>"] — or [None] when no
    trace was requested.  The caller owns attaching it to an engine. *)

val flush_trace : unit -> (string * int) option
(** Write every registered sink to the requested path as one Chrome
    trace; returns [(path, n_events)] and forgets the sinks.  [None]
    when tracing is off or nothing was collected. *)

val reset : unit -> unit
(** Drop all state (tests). *)
