(** Deterministic discrete-event simulation engine.

    Clients, lock servers and data servers of the simulated cluster run as
    cooperative processes over a shared virtual clock: fibers (OCaml 5
    effect-handler coroutines) that may block anywhere, or step processes
    whose body is a chain of steps, one per event ({!spawn_steps}; the
    RPC couriers).  A process runs until it blocks — on a timer
    ({!sleep}), a mailbox, a semaphore or a bandwidth resource — and the
    engine then dispatches the next event in (time, sequence) order, so
    runs are reproducible event-for-event.  The sequence number is the
    order in which events were scheduled: events at the same virtual
    time run first-scheduled first.

    The pending events sit in two queues merged by (time, sequence
    number): an index heap, whose arrays hold only the unboxed keys and
    a pool slot per event (the event's process and thunk are written to
    the pool once and never moved by a sift), and an arrival lane, a
    FIFO for {!at} events installed in time order.  Scheduling and
    dispatching an event allocates nothing beyond the caller's thunk.  A
    sleeping process is recorded only by its wake event in the heap
    (DESIGN.md §18).

    Two kinds of processes exist: regular ones, which the simulation runs
    to completion, and daemons (cache-flush daemons, extent-cache cleanup
    tasks) that may block forever.  {!run} returns once every regular
    process has finished; if the event queue drains while regular
    processes are still blocked, the simulation is deadlocked and
    {!Deadlock} is raised with a report covering every suspended process —
    daemons included — and what each was blocked on. *)

type t

type blocked_proc = {
  b_name : string;
  b_pid : int;
  b_daemon : bool;
  b_context : string option;
      (** What the process was suspended on (the [ctx] its blocking
          primitive passed to {!suspend}), e.g. ["rpc:ls0.lock"]. *)
}

exception Deadlock of blocked_proc list
(** Every process still suspended when the event queue drained, in pid
    order.  Daemons are listed too: a deadlock involving a server daemon
    is diagnosable only if the daemon's wait shows up in the report. *)

val blocked_names : ?daemons:bool -> blocked_proc list -> string list
(** Names of the blocked processes; daemons are excluded unless
    [daemons] is true. *)

val pp_blocked : Format.formatter -> blocked_proc -> unit
(** ["<name> (daemon)? blocked on <context>"]. *)

val create : unit -> t

val now : t -> float
(** Current virtual time, seconds. *)

val spawn : t -> ?daemon:bool -> name:string -> (unit -> unit) -> unit
(** Start a process at the current virtual time.  [daemon] defaults to
    [false].  The body runs as a fiber: it may block anywhere, through
    {!sleep}, {!suspend} and the structures built on them.  This is
    {!spawn_steps} with one [Fiber] step. *)

(** {1 Step processes}

    A process whose body is a chain of steps runs without a fiber of its
    own: each step is a function run in some event, and a blocking step
    hands the engine what to do next.  The RPC couriers are step
    processes ({!Netsim.Rpc}): one short-lived process per message, so a
    fiber and an effect round trip per transport hop would be most of
    their cost.  A step process takes its pid, name, live count and trace
    thread name exactly as {!spawn} does, and each blocking step pushes
    the events the matching blocking call inside a fiber pushes, so the
    [(time, sequence)] stream, the {!fingerprint}, {!blocked_report} and
    {!Deadlock} cannot tell the two apart (DESIGN.md §18). *)

type step =
  | Done  (** the process has finished *)
  | Sleep of float * (unit -> step)
      (** as {!sleep}, then the continuation; a zero duration runs on at
          once, without an event *)
  | Wait of string option * ((unit -> unit) -> unit) * (unit -> step)
      (** as {!suspend} with that context and register function, then
          the continuation *)
  | Fiber of (unit -> unit)
      (** run the body as a fiber of this process, now: the rest of the
          process may block anywhere *)

type proc_name
(** A process name with its fingerprint digest, computed once. *)

val proc_name : string -> proc_name

val spawn_steps : t -> ?daemon:bool -> name:proc_name -> (unit -> step) -> unit
(** Start a step process at the current virtual time: its first event
    runs the function and then the steps it returns.  An exception
    raised by a step, or by a [Wait]'s register function, ends the
    process as one raised by a fiber body does. *)

val schedule : t -> ?delay:float -> (unit -> unit) -> unit
(** Run a plain thunk (not a blocking process) at [now + delay].
    @raise Invalid_argument if [delay] is negative, infinite or NaN. *)

val at : t -> time:float -> (unit -> unit) -> unit
(** Run a plain thunk at the absolute virtual time [time] (>= {!now}).
    This is the open-loop load generator's arrival hook: a whole arrival
    schedule can be installed up front at exact absolute timestamps,
    independent of whatever the running processes are doing — {!sleep}
    chains would instead accumulate each request's handling into the
    next arrival time.  An arrival no earlier than the last one queued
    this way goes into the arrival lane, a FIFO beside the heap, unless
    an event jitter hook or a tie chooser is installed; it takes its
    sequence number at the call either way, so dispatch order is the
    same (time, sequence) order as for any other event.  Thunks
    installed while a jitter hook is set still pass through it, so
    fuzzed runs may legally deliver them late.
    @raise Invalid_argument if [time] is before {!now} or not finite. *)

val run : ?until:float -> t -> unit
(** Dispatch events until every regular process has finished, the queue is
    empty, or virtual time would pass [until].  May be called again to
    continue a paused simulation.

    @raise Deadlock if the queue drains with regular processes blocked. *)

(** {1 Inside a process}

    The following must only be called from code running inside a
    process spawned on the same engine. *)

val sleep : t -> float -> unit
(** Block for a virtual duration (>= 0 and finite; anything else raises
    [Invalid_argument]); a zero duration returns at once without an
    event.  The wake event is the only record of the sleep:
    {!blocked_report} finds the sleeper through it, with context
    ["sleep"]. *)

val suspend : ?ctx:string -> t -> ((unit -> unit) -> unit) -> unit
(** [suspend t register] blocks the current process and hands [register] a
    resume function; calling it (once) reschedules the process at the
    virtual time of the call.  This is the primitive the blocking
    synchronisation structures are built from.  [ctx] names what the
    process is waiting for; it is carried into {!Deadlock} reports. *)

val run_steps : t -> step -> unit
(** Run a step chain inside the current fiber: [Sleep] through {!sleep},
    [Wait] through {!suspend}, [Fiber] by calling the body.  The events
    are the ones a step process running the same chain would push, so a
    protocol written once as steps serves both a blocking caller and a
    courier of its own. *)

val events_dispatched : t -> int
(** Total events processed so far (simulation-cost metric). *)

(** {1 Sanitizer support}

    The protocol sanitizer ({!Check}) uses two engine-level levers: an
    event-stream fingerprint for determinism double-runs, and a pluggable
    tie-break chooser for exhaustive same-timestamp schedule
    exploration. *)

val fingerprint : t -> int64
(** FNV-1a hash over the dispatched event stream
    [(time, pid, process name)].  Two runs of the same scenario on fresh
    engines must produce equal fingerprints; divergence means hidden
    nondeterminism (iteration over unordered hashtables, physical-equality
    ordering, …). *)

val set_tie_chooser : t -> (int -> int) -> unit
(** [set_tie_chooser t f] makes the dispatcher call [f n] whenever [n >= 2]
    pending events share the minimal timestamp; [f] returns the index (in
    deterministic seq order) of the event to dispatch.  The default —
    without a chooser — is index 0.  This is the schedule explorer's
    lever: every return value in [0, n) is a legal protocol ordering.
    Arrivals already in the {!at} lane move into the heap here, so the
    chooser is offered them too. *)

val set_event_jitter : t -> (unit -> float) -> unit
(** [set_event_jitter t f] delays every subsequently scheduled event by
    [f ()] seconds (must be >= 0 and finite).  Because every blocking
    primitive re-checks its condition on wake-up and RPC transports only
    promise "at least" their service times, a non-negative delay is a
    legal delivery perturbation: it reorders message arrivals and daemon
    wake-ups within the protocol's allowed nondeterminism.  With a
    deterministic (seeded) [f], jittered runs stay reproducible
    event-for-event.  Events deferred by the tie chooser are not
    re-jittered. *)

val seed_nondeterminism : ?max_jitter:float -> seed:int -> t -> unit
(** Install the fuzzer's legal-nondeterminism levers, all drawn from one
    deterministic stream: a seeded random tie chooser (same-timestamp
    arrivals dispatch in random order), and — when [max_jitter > 0] — a
    seeded event jitter uniform in [0, max_jitter).  Two engines seeded
    identically and running the same scenario produce identical event
    streams (equal {!fingerprint}s); different seeds explore different
    schedules. *)

val random_float : t -> float -> float
(** Deterministic uniform draw in [\[0, bound)] (0 when [bound <= 0]) from
    the engine's seeded stream — retry backoff jitter and similar
    protocol-level randomness.  The stream starts from a fixed seed at
    {!create} and is re-derived by {!seed_nondeterminism}, so identically
    seeded runs of the same scenario see identical draws. *)

val blocked_report : t -> blocked_proc list
(** The processes currently blocked, in pid order: those in {!suspend}
    with their [ctx], and those in {!sleep} with context ["sleep"] (what
    {!Deadlock} would carry if the queue drained now; a deadlock report
    never holds a sleeper, whose wake is still queued).  Sleepers are
    found by scanning the event queue, so this costs time linear in the
    pending events: it is meant for post-mortems, not for hot paths.  If
    a process body raised, the dead process has been dropped and does
    not appear here. *)

(** {1 Observability}

    The engine carries the run's trace sink and metrics registry so every
    layer above (RPC transport, lock servers, clients) can reach them
    through the engine it already holds.  Both default to disabled — the
    cost on untraced runs is one load-and-branch per instrumentation
    site. *)

val trace_sink : t -> Obs.Trace.sink
(** The run's span/event sink; {!Obs.Trace.null} unless one was set. *)

val set_trace_sink : t -> Obs.Trace.sink -> unit

val metrics : t -> Obs.Metrics.t
(** The run's metrics registry (created disabled with the engine). *)

val current_pid : t -> int
(** Pid of the process whose event is being dispatched; 0 outside any
    process.  Used as the trace [tid]. *)

val current_name : t -> string option
