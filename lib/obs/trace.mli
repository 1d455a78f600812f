(** Span/event tracing in Chrome [trace_event] form.

    A {!sink} collects timestamped events for one simulation run; all
    timestamps are in {e simulated} seconds (converted to the format's
    microseconds at export).  Every emitter guards on {!enabled}, and the
    shared {!null} sink keeps that guard a single load-and-branch: with
    tracing off the instrumented hot paths do no allocation and no work.

    Conventions used across the stack (see DESIGN.md §8):
    - [pid] identifies the run (one cluster = one process group in the
      viewer), [tid] is the simulated process id ({!Engine.current_pid}).
    - Synchronous work uses begin/end pairs ([ph:"B"]/[ph:"E"]), which
      must nest per (pid, tid) — guaranteed here because a simulated
      process is sequential.
    - Lock wait attribution uses complete events ([ph:"X"]) carrying a
      duration, so wait totals can be recovered by summation alone.
    - Point events use [ph:"i"], thread/process names [ph:"M"]. *)

type sink

type ev = {
  ph : char;  (** 'B' | 'E' | 'X' | 'i' | 'M' *)
  name : string;
  cat : string;
  ts : float;  (** simulated seconds *)
  dur : float;  (** seconds; only meaningful for 'X' *)
  tid : int;
  args : (string * Json.t) list;
}

val null : sink
(** The disabled sink: {!enabled} is [false], emitters drop everything. *)

val make : ?pid:int -> ?label:string -> unit -> sink
(** A collecting sink.  [pid] tags every event (default 0); [label]
    becomes the viewer's process name. *)

val enabled : sink -> bool
val label : sink -> string

val begin_span :
  sink -> ts:float -> tid:int -> ?cat:string ->
  ?args:(string * Json.t) list -> string -> unit

val end_span : sink -> ts:float -> tid:int -> string -> unit

val complete :
  sink -> ts:float -> dur:float -> tid:int -> ?cat:string ->
  ?args:(string * Json.t) list -> string -> unit

val instant :
  sink -> ts:float -> tid:int -> ?cat:string ->
  ?args:(string * Json.t) list -> string -> unit

val thread_name : sink -> tid:int -> string -> unit

val events : sink -> ev list
(** In emission order. *)

val num_events : sink -> int

val to_json : sink list -> Json.t
(** [{"traceEvents": [...], "displayTimeUnit": "ms"}] over every sink,
    each sink contributing its own [pid] plus a [process_name] metadata
    record when labelled.  Load the result in Perfetto / chrome://tracing. *)
