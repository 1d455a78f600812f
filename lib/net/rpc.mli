(** Simulated RPC transport (the CaRT/Mercury stand-in).

    The cost of an RPC to a server is exactly the paper's model: half an
    RTT of propagation, payload occupancy of the server's inbound NIC pipe
    (size / B_net, FIFO), one operation of the server's RPC processor
    (1 / OPS, FIFO — what bounds term ① of Eq. 1) and, for the reply,
    another half RTT plus payload occupancy of the caller's NIC.

    Each message travels in a courier process of its own: [<name>.req]
    for a request, [<name>.reply] for its reply, [<name>.notify] for a
    notification and [<name>.send] for a {!send_reliable} (one for a
    whole {!stream_reliable}).  Couriers are step processes
    ({!Dessim.Engine.spawn_steps}), not fibers: each transport hop is
    one step, and the handler runs inline in the request courier's last
    step.  A handler either calls [reply] before returning or stores it
    and fires it later (how lock servers defer grants during conflict
    resolution).  Deferred or not, the reply's
    network cost is charged when [reply] runs.

    A handler that must wait on simulated resources (a data server's
    write handler occupies the disk before replying) is a step handler
    ({!step_endpoint}): it returns the rest of its work as steps, which
    the request courier runs as its own remaining steps, so a wait costs
    the events a fiber's would and no fiber.  It stalls the server's
    other requests no more than the FIFO resources it holds.

    One-way notifications ({!notify}) model the server→client callbacks of
    the lock protocol (revocations); they never block the sender. *)

type ('req, 'resp) endpoint

val endpoint :
  Dessim.Engine.t -> Params.t -> node:Node.t -> name:string ->
  handler:('req -> reply:('resp -> unit) -> unit) ->
  ('req, 'resp) endpoint
(** Register a service on [node].  [handler] is invoked after the
    request's transport + service costs have been paid, and must not
    block: a handler that blocks raises [Invalid_argument] naming the
    endpoint. *)

val step_endpoint :
  Dessim.Engine.t -> Params.t -> node:Node.t -> name:string ->
  handler:('req -> reply:('resp -> unit) -> Dessim.Engine.step) ->
  ('req, 'resp) endpoint
(** {!endpoint} with a step handler: what [handler] returns runs as the
    request courier's remaining steps ([Sleep] for a disk wait, say; a
    zero delay goes on at once, without an event), and the serve trace
    span closes when they reach [Done].  The handler itself runs inline
    and must not block, as on {!endpoint}. *)

val call :
  ('req, 'resp) endpoint -> src:Node.t -> ?req_bytes:int -> ?resp_bytes:int ->
  'req -> 'resp
(** Synchronous call from a process on [src]; blocks until the reply
    arrives.  Payload sizes default to [ctl_msg_bytes]. *)

val notify :
  ('req, unit) endpoint -> src:Node.t -> ?req_bytes:int -> 'req -> unit
(** Fire-and-forget message; transport and service costs are paid by a
    courier process, the caller continues immediately. *)

val calls : ('req, 'resp) endpoint -> int
(** Requests that reached the handler so far. *)

val name : ('req, 'resp) endpoint -> string
(** The service name the endpoint registered under (diagnostics). *)

(** {1 Fenced transport}

    The failover machinery (lib/ha) needs four things the plain paths
    above don't model: per-call timeouts with jittered-exponential-backoff
    retries, request-id-based at-most-once execution on the server,
    epoch fencing (a recovered server rejects requests — and clients
    discard replies — stamped with a fenced-off epoch), and injectable
    message loss/duplication.  All of it lives on separate entry points:
    {!call} and {!notify} are byte-for-byte unaffected. *)

type reliability = {
  rel_timeout : float;      (** per-attempt reply deadline, seconds *)
  rel_base_backoff : float; (** first retry delay; doubles per attempt *)
  rel_max_backoff : float;  (** backoff cap *)
}

val reliability_for : Params.t -> reliability
(** Retry policy scaled to the cluster's RTT (40/4/200 RTTs). *)

type 'resp attempt =
  | Reply of 'resp * int  (** response + the server epoch that served it *)
  | Stale of int  (** fenced: the request's epoch predates the server's *)
  | Timeout  (** no reply within the deadline (lost, crashed, or slow) *)

(** Caller-side epoch knowledge (per endpoint name), request-id allocation
    and retry accounting — one per client.  Epochs only move forward. *)
module View : sig
  type t

  val create : ?salt:int -> unit -> t
  (** [salt] partitions the request-id space between callers, so ids are
      unique per endpoint across the cluster. *)

  val epoch : t -> string -> int
  val observe : t -> string -> int -> unit
  (** Raise the view of [name] to [e] (never lowers it). *)

  val fresh_req_id : t -> int
  val retries : t -> int
end

val call_fenced :
  ('req, 'resp) endpoint -> src:Node.t -> ?req_bytes:int -> ?resp_bytes:int ->
  ?timeout:float -> epoch:int -> ?req_id:int -> 'req -> 'resp attempt
(** One fenced attempt.  Deliveries to a down (or reset-since-send)
    endpoint are dropped — the caller sees {!Timeout} (or blocks forever
    without [timeout]).  [req_id] enables at-most-once dedup: a repeated
    id never re-runs the handler, it replays or awaits the stored reply —
    unless the retry is stamped with a {e newer} epoch than the entry was
    created under, in which case the stored reply belongs to the
    fenced-off regime, the entry is purged, and the handler runs again
    against the post-election state. *)

val call_reliable :
  ('req, 'resp) endpoint -> src:Node.t -> ?req_bytes:int -> ?resp_bytes:int ->
  ?reliability:reliability -> view:View.t -> 'req -> 'resp
(** Retry {!call_fenced} under one request id until a same-or-newer-epoch
    reply arrives, observing epoch bumps into [view] and sleeping a
    jittered exponential backoff between attempts ({!Engine.random_float},
    so retries are deterministic).  Without [reliability] each attempt
    waits forever — equivalent to {!call} plus fencing and dedup. *)

val send_reliable :
  ('req, 'resp) endpoint -> src:Node.t -> ?req_bytes:int ->
  ?reliability:reliability -> view:View.t -> 'req -> unit
(** Fire-and-forget {!call_reliable} from a courier process: the caller
    continues immediately, the courier retries until the message is
    acknowledged.  The courier runs the same retry loop as
    {!call_reliable}, as steps, and pushes the same events.  The
    reliable replacement for {!notify} — control messages (releases,
    revoke acks) must survive a server outage.  The one-message case of
    {!stream_reliable}. *)

val stream_reliable :
  ('req, 'resp) endpoint -> src:Node.t -> ?reliability:reliability ->
  view:View.t -> (unit -> ('req * int) option) -> unit
(** [stream_reliable ep ~src ~view next] sends a stream of messages from
    one courier, one at a time: the courier's first step asks [next]
    for a message and its payload size, sends it as {!send_reliable}
    does, and once it is acknowledged asks [next] again; [None] ends the
    courier.  So at most one message of the stream is in flight, and a
    message [next] produces is built when it goes on the wire, not when
    its content was queued — a sender batches whatever accumulated
    during the previous round trip. *)

val set_down : ('req, 'resp) endpoint -> bool -> unit
val is_down : ('req, 'resp) endpoint -> bool

val set_epoch : ('req, 'resp) endpoint -> int -> unit
(** Install the serving epoch: fenced requests stamped with an older epoch
    are rejected with {!Stale}, and replies carry this value. *)

val reset : ('req, 'resp) endpoint -> unit
(** Model a crash of the hosting service: in-flight fenced requests to the
    old incarnation are dropped at delivery and the at-most-once table —
    volatile memory — is cleared. *)

val set_dedup_cap : ('req, 'resp) endpoint -> int -> unit
(** Bound the at-most-once table to [cap] request ids (default 4096).
    Oldest *completed* entries are evicted first; entries whose handler
    has not replied yet are never evicted.  Replay of any id newer than
    the oldest retained one is still deduplicated — the retention
    window.  Entries are also purged when a retry of their id arrives
    stamped with a newer epoch (see {!call_fenced}).
    @raise Invalid_argument if [cap < 1]. *)

val set_fault :
  ('req, 'resp) endpoint -> loss:float -> dup:float -> rng:(unit -> float) ->
  unit
(** Drop ([loss]) or duplicate ([dup]) fenced requests, and drop fenced
    replies, with the given probabilities; [rng] must be deterministic
    (a seeded {!Ccpfs_util.Det_random} draw).  Plain [call]/[notify]
    traffic is never faulted — nothing would retransmit it.
    @raise Invalid_argument if a rate is outside [0,1]. *)

val clear_fault : ('req, 'resp) endpoint -> unit
