open Dessim

type reliability = {
  rel_timeout : float;
  rel_base_backoff : float;
  rel_max_backoff : float;
}

let reliability_for (p : Params.t) =
  {
    rel_timeout = 40. *. p.Params.rtt;
    rel_base_backoff = 4. *. p.Params.rtt;
    rel_max_backoff = 200. *. p.Params.rtt;
  }

type 'resp attempt = Reply of 'resp * int | Stale of int | Timeout

type fault = { f_loss : float; f_dup : float; f_rng : unit -> float }

(* At-most-once bookkeeping: the first delivery of a request id runs the
   handler; retried or duplicated deliveries either replay the stored
   result or park a reply sender until the (possibly deferred) handler
   reply fires.  [de_epoch] is the membership epoch the request carried
   when the entry was created: a retry of the same id stamped with a
   newer epoch is a post-election re-submission, and a reply computed
   under the old epoch must not answer it. *)
type 'resp dedup_entry = {
  de_id : int;
  mutable de_result : 'resp option;
  mutable de_pending : ('resp -> unit) list;
  de_epoch : int;
}

(* An endpoint's at-most-once table and its insertion order, for FIFO
   pruning; each order slot is the entry itself, so a purged id's stale
   slot is told apart from its re-submission's.  Created at the first
   delivery that carries a request id: plain endpoints, two per client,
   never need one. *)
type 'resp amo = {
  table : (int, 'resp dedup_entry) Hashtbl.t;
  order : 'resp dedup_entry Queue.t;
}

(* An endpoint's courier process names, each with its fingerprint
   digest, and its callers' wait context. *)
type names = {
  req : Engine.proc_name;
  reply : Engine.proc_name;
  notify : Engine.proc_name;
  send : Engine.proc_name;
  wait_ctx : string option; (* "rpc:<name>" *)
}

type ('req, 'resp) endpoint = {
  eng : Engine.t;
  params : Params.t;
  node : Node.t;
  name : string;
  blocking : bool; (* the handler may block: it runs as a fiber *)
  mutable names : names option; (* built by [names] on the first message *)
  handler : 'req -> reply:('resp -> unit) -> unit;
  mutable count : int;
  latency : Obs.Metrics.histogram; (* caller-observed call round trip *)
  mutable epoch : int; (* membership epoch stamped on fenced replies *)
  mutable down : bool; (* crashed: fenced deliveries are dropped *)
  mutable incarnation : int; (* bumped by [reset]: cuts in-flight requests *)
  mutable amo : 'resp amo option;
  mutable dedup_cap : int;
  mutable fault : fault option; (* loss/duplication, fenced traffic only *)
  retry_counter : Obs.Metrics.counter;
}

(* A client's knowledge of server epochs, plus its request-id allocator
   and retry accounting.  Lives on the caller side so the DLM layer never
   depends on the HA layer: recovery bumps a view through the gather RPC,
   and the retry loop discards replies stamped with an older epoch. *)
module View = struct
  type t = {
    epochs : (string, int) Hashtbl.t;
    salt : int;
    mutable next_req : int;
    mutable retries : int;
  }

  let create ?(salt = 0) () =
    { epochs = Hashtbl.create 8; salt; next_req = 0; retries = 0 }

  let epoch t name =
    match Hashtbl.find_opt t.epochs name with Some e -> e | None -> 0

  let observe t name e = if e > epoch t name then Hashtbl.replace t.epochs name e

  let fresh_req_id t =
    t.next_req <- t.next_req + 1;
    (t.salt * 0x4000_0000) + t.next_req

  let retries t = t.retries
  let note_retry t = t.retries <- t.retries + 1
end

(* Bounded at-most-once retention: keep at most [dedup_cap] request ids,
   dropping the oldest *completed* entries first.  An entry whose handler
   has not replied yet is never dropped (its parked reply senders must
   fire), so the table is bounded by cap + in-flight handlers. *)
let default_dedup_cap = 4096

let endpoint ?(blocking = false) eng params ~node ~name ~handler =
  let latency =
    Obs.Metrics.histogram (Engine.metrics eng) ("rpc.latency." ^ name)
  in
  let retry_counter = Obs.Metrics.counter (Engine.metrics eng) "rpc.retry" in
  { eng; params; node; name; blocking; names = None; handler; count = 0; latency;
    epoch = 0; down = false; incarnation = 0; amo = None;
    dedup_cap = default_dedup_cap;
    fault = None; retry_counter }

(* Built once per endpoint, on its first message.  Concatenating them on
   every message cost allocations on every RPC; building them at
   creation cost set-up time and heap on each of the thousands of
   endpoints a large cluster holds, many of which never send. *)
let names t =
  match t.names with
  | Some n -> n
  | None ->
      let courier suffix = Engine.proc_name (t.name ^ suffix) in
      let n =
        { req = courier ".req"; reply = courier ".reply";
          notify = courier ".notify"; send = courier ".send";
          wait_ctx = Some ("rpc:" ^ t.name) }
      in
      t.names <- Some n;
      n

let pipe_for node params bytes =
  if bytes > params.Params.bulk_threshold then Node.rx node
  else Node.ctl_rx node

(* A request/notification span covering transport + the handler's
   synchronous part, on the courier process's own tid: begun at the
   courier's first step, ended when the handler returns.  The deferred
   tail of a handler (a lock server parking [reply] until conflicts
   resolve) is deliberately outside: that wait shows up as the
   lock-lifecycle events instead. *)
let begin_serve t kind bytes =
  let sink = Engine.trace_sink t.eng in
  if Obs.Trace.enabled sink then
    Obs.Trace.begin_span sink ~ts:(Engine.now t.eng)
      ~tid:(Engine.current_pid t.eng) ~cat:"rpc"
      ~args:[ ("bytes", Obs.Json.Int bytes) ]
      (kind ^ ":" ^ t.name)

let end_serve t kind =
  let sink = Engine.trace_sink t.eng in
  if Obs.Trace.enabled sink then
    Obs.Trace.end_span sink ~ts:(Engine.now t.eng)
      ~tid:(Engine.current_pid t.eng) (kind ^ ":" ^ t.name)

(* The courier's last step: run the handler part of a delivery.  On a
   blocking endpoint it runs as a fiber of the courier, so it may wait on
   the disk; anywhere else it runs inline, where a blocking call finds
   no effect handler and is reported against the endpoint. *)
let serve t kind handle =
  if t.blocking then
    Engine.Fiber
      (fun () ->
        match handle () with
        | () -> end_serve t kind
        | exception e ->
            end_serve t kind;
            raise e)
  else
    match handle () with
    | () ->
        end_serve t kind;
        Engine.Done
    | exception Effect.Unhandled _ ->
        end_serve t kind;
        invalid_arg
          ("Rpc: the handler of " ^ t.name
         ^ " blocked, but the endpoint is not declared ~blocking:true")
    | exception e ->
        end_serve t kind;
        raise e

(* A fenced message is dropped when the server is down or was reset
   since the send. *)
let cut t ~fenced ~inc = fenced && (t.down || inc <> t.incarnation)

let dropped t kind =
  end_serve t kind;
  Engine.Done

(* The request leg of a courier, as steps: half an RTT of propagation,
   the server's NIC pipe, its RPC processor, then [handle].  A fenced
   leg is dropped on arrival at a cut server, and again after the
   queues: the server may have crashed while the request sat in them,
   and a dead incarnation must not run handlers.  Shared by every
   request, notification and fenced attempt. *)
let request_leg t ~kind ~bytes ~fenced ~inc handle =
  let rec start () =
    begin_serve t kind bytes;
    Engine.Sleep (t.params.Params.rtt /. 2., arrive)
  and arrive () =
    if cut t ~fenced ~inc then dropped t kind
    else begin
      Node.add_net_bytes t.node bytes;
      Engine.Sleep
        (Resource.reserve (pipe_for t.node t.params bytes) (float_of_int bytes), queue)
    end
  and queue () = Engine.Sleep (Resource.reserve (Node.ops t.node) 1., served)
  and served () =
    if cut t ~fenced ~inc then dropped t kind
    else begin
      Node.incr_rpc t.node;
      t.count <- t.count + 1;
      serve t kind handle
    end
  in
  start

(* The reply leg, as steps: half an RTT back to [src], its NIC pipe,
   then the fill.  A fenced reply may be lost to the fault plane, and
   tolerates a duplicate having filled the cell first. *)
let reply_leg t ~src ~bytes ~fenced ivar v =
  let rec start () = Engine.Sleep (t.params.Params.rtt /. 2., arrive)
  and arrive () =
    let lost =
      fenced
      && match t.fault with Some f -> f.f_rng () < f.f_loss | None -> false
    in
    if lost then Engine.Done
    else begin
      Node.add_net_bytes src bytes;
      Engine.Sleep
        (Resource.reserve (pipe_for src t.params bytes) (float_of_int bytes), fill)
    end
  and fill () =
    if not (fenced && Ivar.is_filled ivar) then Ivar.fill ivar v;
    Engine.Done
  in
  start

let reply_courier t ~src ~bytes ~fenced ivar v =
  Engine.spawn_steps t.eng ~name:(names t).reply
    (reply_leg t ~src ~bytes ~fenced ivar v)

let call_async t ~src ?req_bytes ?resp_bytes req =
  let req_bytes = Option.value req_bytes ~default:t.params.Params.ctl_msg_bytes in
  let resp_bytes =
    Option.value resp_bytes ~default:t.params.Params.ctl_msg_bytes
  in
  let ivar = Ivar.create t.eng in
  Engine.spawn_steps t.eng ~name:(names t).req
    (request_leg t ~kind:"serve" ~bytes:req_bytes ~fenced:false ~inc:0
       (fun () ->
         t.handler req ~reply:(fun resp ->
             reply_courier t ~src ~bytes:resp_bytes ~fenced:false ivar resp)));
  ivar

let call t ~src ?req_bytes ?resp_bytes req =
  let sink = Engine.trace_sink t.eng in
  let t0 = Engine.now t.eng in
  let traced = Obs.Trace.enabled sink in
  let tid = if traced then Engine.current_pid t.eng else 0 in
  if traced then
    Obs.Trace.begin_span sink ~ts:t0 ~tid ~cat:"rpc" ("call:" ^ t.name);
  let finish () =
    let now = Engine.now t.eng in
    Obs.Metrics.observe t.latency (now -. t0);
    if traced then Obs.Trace.end_span sink ~ts:now ~tid ("call:" ^ t.name)
  in
  match
    Ivar.read ?ctx:(names t).wait_ctx (call_async t ~src ?req_bytes ?resp_bytes req)
  with
  | resp ->
      finish ();
      resp
  | exception e ->
      finish ();
      raise e

let notify t ~src ?req_bytes req =
  let req_bytes = Option.value req_bytes ~default:t.params.Params.ctl_msg_bytes in
  ignore src;
  Engine.spawn_steps t.eng ~name:(names t).notify
    (request_leg t ~kind:"notify" ~bytes:req_bytes ~fenced:false ~inc:0
       (fun () -> t.handler req ~reply:ignore))

let calls t = t.count
let name t = t.name

(* ------------------------------------------------------------------ *)
(* Fenced transport: epoch checks, at-most-once dedup, crash fencing   *)
(* and fault injection.  The plain [call]/[notify] paths share the     *)
(* legs above but never take their fenced branches — fenced semantics  *)
(* only apply where the HA layer asked for them.                       *)
(* ------------------------------------------------------------------ *)

let set_down t down = t.down <- down
let is_down t = t.down
let set_epoch t e = t.epoch <- e

let reset t =
  (* A crash cuts the wires: in-flight requests addressed to the old
     incarnation are dropped at delivery, and the dedup table — volatile
     server memory — is lost with everything else. *)
  t.incarnation <- t.incarnation + 1;
  t.amo <- None

let set_dedup_cap t cap =
  if cap < 1 then invalid_arg "Rpc.set_dedup_cap: cap must be >= 1";
  t.dedup_cap <- cap

(* Evict oldest completed dedup entries once over cap.  Pruning stops at
   the first still-pending entry: its parked reply senders must fire, and
   FIFO retention keeps the guarantee simple — everything newer than the
   oldest retained id is still deduplicated.  A slot whose entry is no
   longer the table's (purged by a re-submission, which queued a slot of
   its own) is dropped without touching the table. *)
let prune_dedup t a =
  let continue = ref true in
  while !continue && Hashtbl.length a.table > t.dedup_cap do
    match Queue.peek_opt a.order with
    | None -> continue := false
    | Some e -> (
        match Hashtbl.find_opt a.table e.de_id with
        | Some live when live == e ->
            if Option.is_none e.de_result then continue := false
            else begin
              ignore (Queue.pop a.order);
              Hashtbl.remove a.table e.de_id
            end
        | Some _ | None -> ignore (Queue.pop a.order))
  done

let amo t =
  match t.amo with
  | Some a -> a
  | None ->
      let a = { table = Hashtbl.create 64; order = Queue.create () } in
      t.amo <- Some a;
      a

let set_fault t ~loss ~dup ~rng =
  if loss < 0. || loss > 1. || dup < 0. || dup > 1. then
    invalid_arg "Rpc.set_fault: rates must be in [0,1]";
  t.fault <- Some { f_loss = loss; f_dup = dup; f_rng = rng }

let clear_fault t = t.fault <- None

(* The delivery of a fenced request: the epoch fence, then dedup, then
   the handler. *)
let deliver_fenced t ~src ~resp_bytes ~epoch:req_epoch ~req_id ivar req () =
  let send resp = reply_courier t ~src ~bytes:resp_bytes ~fenced:true ivar resp in
  if req_epoch < t.epoch then send (Stale t.epoch)
  else
    let send_reply resp = send (Reply (resp, t.epoch)) in
    match req_id with
    | None -> t.handler req ~reply:send_reply
    | Some id -> (
        let a = amo t in
        let run_fresh () =
          let e =
            { de_id = id; de_result = None; de_pending = [ send_reply ];
              de_epoch = req_epoch }
          in
          Hashtbl.add a.table id e;
          Queue.push e a.order;
          prune_dedup t a;
          t.handler req ~reply:(fun resp ->
              match e.de_result with
              | Some _ -> () (* handler double-reply: keep the first *)
              | None ->
                  e.de_result <- Some resp;
                  let ps = List.rev e.de_pending in
                  e.de_pending <- [];
                  List.iter (fun send -> send resp) ps)
        in
        match Hashtbl.find_opt a.table id with
        | Some e when e.de_result <> None && req_epoch > e.de_epoch ->
            (* The stored reply predates an epoch bump this caller has
               already observed (a post-election re-submission): the
               cached result belongs to the fenced-off regime, so purge
               it and run the handler against the current state.  The
               id's stale slot in [a.order] names the purged entry,
               so pruning drops it without evicting this
               re-submission. *)
            Hashtbl.remove a.table id;
            run_fresh ()
        | Some e -> (
            (* Retransmission (or duplicate) of a request we already
               accepted: never re-run the handler. *)
            match e.de_result with
            | Some resp -> send_reply resp
            | None -> e.de_pending <- send_reply :: e.de_pending)
        | None -> run_fresh ())

(* One fenced attempt, as steps: the loss and duplication draws, one
   request courier per copy, then the wait for the outcome. *)
let attempt t ~src ?req_bytes ?resp_bytes ?timeout ~epoch ?req_id req k =
  let req_bytes = Option.value req_bytes ~default:t.params.Params.ctl_msg_bytes in
  let resp_bytes =
    Option.value resp_bytes ~default:t.params.Params.ctl_msg_bytes
  in
  let ivar = Ivar.create t.eng in
  let inc = t.incarnation in
  let copies =
    match t.fault with
    | None -> 1
    | Some f ->
        let base = if f.f_rng () < f.f_loss then 0 else 1 in
        let extra = if f.f_rng () < f.f_dup then 1 else 0 in
        base + extra
  in
  for _ = 1 to copies do
    Engine.spawn_steps t.eng ~name:(names t).req
      (request_leg t ~kind:"serve" ~bytes:req_bytes ~fenced:true ~inc
         (deliver_fenced t ~src ~resp_bytes ~epoch ~req_id ivar req))
  done;
  Ivar.await ?ctx:(names t).wait_ctx ?timeout ivar (fun () ->
      k (match Ivar.peek ivar with Some outcome -> outcome | None -> Timeout))

(* Run a step chain that ends in [k v] inside the calling process and
   return [v]. *)
let block t steps =
  let result = ref None in
  Engine.run_steps t.eng
    (steps (fun v ->
         result := Some v;
         Engine.Done));
  Option.get !result

let call_fenced t ~src ?req_bytes ?resp_bytes ?timeout ~epoch ?req_id req =
  block t (attempt t ~src ?req_bytes ?resp_bytes ?timeout ~epoch ?req_id req)

let note_retry t view ~attempt =
  Obs.Metrics.incr t.retry_counter;
  View.note_retry view;
  let sink = Engine.trace_sink t.eng in
  if Obs.Trace.enabled sink then
    Obs.Trace.instant sink ~ts:(Engine.now t.eng)
      ~tid:(Engine.current_pid t.eng) ~cat:"rpc"
      ~args:[ ("endpoint", Obs.Json.Str t.name); ("attempt", Obs.Json.Int attempt) ]
      "rpc.retry"

(* The retry loop, as steps, shared by the blocking [call_reliable] and
   the [send_reliable] courier: fenced attempts under one request id
   until a same-or-newer-epoch reply arrives, then [k resp]. *)
let reliable t ~src ?req_bytes ?resp_bytes ?reliability ~view req k =
  let req_id = View.fresh_req_id view in
  let timeout = Option.map (fun r -> r.rel_timeout) reliability in
  let rec go n backoff =
    let req_epoch = View.epoch view t.name in
    attempt t ~src ?req_bytes ?resp_bytes ?timeout ~epoch:req_epoch ~req_id req
      (fun outcome ->
        let retry () =
          note_retry t view ~attempt:(n + 1);
          (* Clamp the accumulator itself, not just the drawn delay: a
             long outage doubles it once per attempt, and an unclamped
             float marches toward infinity (and loses the plateau if the
             cap is ever applied after jitter). *)
          match reliability with
          | None -> go (n + 1) backoff
          | Some rel ->
              (* Jittered exponential backoff; the jitter draw comes from
                 the engine's deterministic stream. *)
              Engine.Sleep
                ( backoff +. Engine.random_float t.eng (backoff /. 2.),
                  fun () -> go (n + 1) (Float.min (backoff *. 2.) rel.rel_max_backoff) )
        in
        match outcome with
        | Reply (resp, e) when e >= View.epoch view t.name ->
            View.observe view t.name e;
            k resp
        | Reply _ ->
            (* A grant from a fenced-off epoch arrived after we learned of
               the recovery: discard it and re-submit against the new
               epoch. *)
            retry ()
        | Stale e ->
            View.observe view t.name e;
            retry ()
        | Timeout -> retry ())
  in
  go 0 (match reliability with Some r -> r.rel_base_backoff | None -> 0.)

let call_reliable t ~src ?req_bytes ?resp_bytes ?reliability ~view req =
  block t (reliable t ~src ?req_bytes ?resp_bytes ?reliability ~view req)

let send_reliable t ~src ?req_bytes ?reliability ~view req =
  Engine.spawn_steps t.eng ~name:(names t).send (fun () ->
      reliable t ~src ?req_bytes ?reliability ~view req (fun _ -> Engine.Done))
