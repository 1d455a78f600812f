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

(* Per-endpoint request coalescing (the transport half of the batching
   design, DESIGN.md §13): plain calls/notifications destined for this
   endpoint queue here and ride one simulated message, flushed when
   [b_max] messages have accumulated or [b_delay] elapses since the
   queue went non-empty.  Fenced traffic never batches — the loss/dup/
   fencing model is per-message. *)
type ('req, 'resp) batch = {
  b_max : int;
  b_delay : float;
  mutable b_items : ('req * int * ('resp -> unit)) list; (* reversed *)
  mutable b_armed : bool; (* a delay-timer flush is pending *)
  b_size : Obs.Metrics.histogram; (* rpc.batch.size.<name> *)
}

(* An endpoint's courier process names and its callers' wait context. *)
type names = {
  req : string;
  reply : string;
  notify : string;
  send : string;
  batch : string;
  wait_ctx : string option; (* "rpc:<name>" *)
}

type ('req, 'resp) endpoint = {
  eng : Engine.t;
  params : Params.t;
  node : Node.t;
  name : string;
  mutable names : names option; (* built by [names] on the first message *)
  handler : 'req -> reply:('resp -> unit) -> unit;
  mutable count : int;
  latency : Obs.Metrics.histogram; (* caller-observed call round trip *)
  mutable epoch : int; (* membership epoch stamped on fenced replies *)
  mutable down : bool; (* crashed: fenced deliveries are dropped *)
  mutable incarnation : int; (* bumped by [reset]: cuts in-flight requests *)
  dedup : (int, 'resp dedup_entry) Hashtbl.t;
  dedup_order : 'resp dedup_entry Queue.t;
      (* dedup insertion order, for FIFO pruning; each slot is the entry
         itself, so a purged id's stale slot is told apart from its
         re-submission's *)
  mutable dedup_cap : int;
  mutable fault : fault option; (* loss/duplication, fenced traffic only *)
  retry_counter : Obs.Metrics.counter;
  mutable batch : ('req, 'resp) batch option;
  mutable batch_handler : (('req * ('resp -> unit)) list -> unit) option;
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

let endpoint eng params ~node ~name ~handler =
  let latency =
    Obs.Metrics.histogram (Engine.metrics eng) ("rpc.latency." ^ name)
  in
  let retry_counter = Obs.Metrics.counter (Engine.metrics eng) "rpc.retry" in
  { eng; params; node; name; names = None; handler; count = 0; latency;
    epoch = 0; down = false; incarnation = 0; dedup = Hashtbl.create 64;
    dedup_order = Queue.create (); dedup_cap = default_dedup_cap;
    fault = None; retry_counter; batch = None; batch_handler = None }

(* Built once per endpoint, on its first message.  Concatenating them on
   every message cost allocations on every RPC; building them at
   creation cost set-up time and heap on each of the thousands of
   endpoints a large cluster holds, many of which never send. *)
let names t =
  match t.names with
  | Some n -> n
  | None ->
      let n =
        { req = t.name ^ ".req"; reply = t.name ^ ".reply";
          notify = t.name ^ ".notify"; send = t.name ^ ".send";
          batch = t.name ^ ".batch"; wait_ctx = Some ("rpc:" ^ t.name) }
      in
      t.names <- Some n;
      n

(* Request journey, run in the context of some process: propagation, then
   the server's NIC pipe, then its RPC processor. *)
let pipe_for node params bytes =
  if bytes > params.Params.bulk_threshold then Node.rx node
  else Node.ctl_rx node

let inbound t bytes =
  Engine.sleep t.eng (t.params.Params.rtt /. 2.);
  Node.add_net_bytes t.node bytes;
  Resource.consume (pipe_for t.node t.params bytes) (float_of_int bytes);
  Resource.consume (Node.ops t.node) 1.;
  Node.incr_rpc t.node;
  t.count <- t.count + 1

(* A request/notification span covering transport + the handler's
   synchronous part, on the courier process's own tid.  The deferred tail
   of a handler (a lock server parking [reply] until conflicts resolve)
   is deliberately outside: that wait shows up as the lock-lifecycle
   events instead. *)
let serve_span t kind bytes f =
  let sink = Engine.trace_sink t.eng in
  if not (Obs.Trace.enabled sink) then f ()
  else begin
    let tid = Engine.current_pid t.eng in
    Obs.Trace.begin_span sink ~ts:(Engine.now t.eng) ~tid ~cat:"rpc"
      ~args:[ ("bytes", Obs.Json.Int bytes) ]
      (kind ^ ":" ^ t.name);
    match f () with
    | v ->
        Obs.Trace.end_span sink ~ts:(Engine.now t.eng) ~tid (kind ^ ":" ^ t.name);
        v
    | exception e ->
        Obs.Trace.end_span sink ~ts:(Engine.now t.eng) ~tid (kind ^ ":" ^ t.name);
        raise e
  end

(* Reply journey: a courier carries it back to [src] and fills the ivar. *)
let reply_courier t ~src ~resp_bytes ivar resp =
  Engine.spawn t.eng ~name:(names t).reply
    (fun () ->
      Engine.sleep t.eng (t.params.Params.rtt /. 2.);
      Node.add_net_bytes src resp_bytes;
      Resource.consume (pipe_for src t.params resp_bytes) (float_of_int resp_bytes);
      Ivar.fill ivar resp)

(* Deliver a flushed batch: one courier pays propagation once, the NIC
   pipe for the summed payload, and a single RPC-processor operation
   amortized over the whole batch (the Eq. 1 term-① win batching buys).
   Messages are then served strictly in enqueue order — through the
   vectorized batch handler when one is installed, else one handler call
   per message. *)
let flush_batch t b cause =
  match List.rev b.b_items with
  | [] -> ()
  | items ->
      b.b_items <- [];
      let n = List.length items in
      let bytes = List.fold_left (fun a (_, by, _) -> a + by) 0 items in
      Obs.Metrics.observe b.b_size (float_of_int n);
      Engine.spawn t.eng ~name:(names t).batch
        (fun () ->
          serve_span t "batch" bytes (fun () ->
              Engine.sleep t.eng (t.params.Params.rtt /. 2.);
              Node.add_net_bytes t.node bytes;
              Resource.consume (pipe_for t.node t.params bytes)
                (float_of_int bytes);
              Resource.consume (Node.ops t.node) 1.;
              List.iter (fun _ -> Node.incr_rpc t.node) items;
              t.count <- t.count + n;
              let sink = Engine.trace_sink t.eng in
              if Obs.Trace.enabled sink then
                Obs.Trace.instant sink ~ts:(Engine.now t.eng)
                  ~tid:(Engine.current_pid t.eng) ~cat:"rpc"
                  ~args:
                    [ ("endpoint", Obs.Json.Str t.name);
                      ("n", Obs.Json.Int n); ("bytes", Obs.Json.Int bytes);
                      ("cause", Obs.Json.Str cause) ]
                  "rpc.batch.flush";
              match t.batch_handler with
              | Some bh -> bh (List.map (fun (r, _, rep) -> (r, rep)) items)
              | None ->
                  List.iter (fun (r, _, rep) -> t.handler r ~reply:rep) items))

(* Queue a message on the batch; flush immediately on reaching b_max,
   else make sure a delay-timer flush is armed.  The timer event keeps
   the engine's heap non-empty while messages wait, so a caller blocked
   on a batched reply can never deadlock the run loop. *)
let enqueue_batch t b ~bytes ~reply req =
  b.b_items <- (req, bytes, reply) :: b.b_items;
  if List.length b.b_items >= b.b_max then flush_batch t b "size"
  else if not b.b_armed then begin
    b.b_armed <- true;
    Engine.schedule t.eng ~delay:b.b_delay (fun () ->
        b.b_armed <- false;
        flush_batch t b "timer")
  end

let set_batching t ~max_batch ~delay =
  if max_batch < 1 || delay < 0. then
    invalid_arg "Rpc.set_batching: max_batch must be >= 1, delay >= 0";
  (match t.batch with Some b -> flush_batch t b "reconfig" | None -> ());
  let b_size =
    Obs.Metrics.histogram (Engine.metrics t.eng) ("rpc.batch.size." ^ t.name)
  in
  t.batch <-
    Some { b_max = max_batch; b_delay = delay; b_items = []; b_armed = false;
           b_size }

let clear_batching t =
  match t.batch with
  | None -> ()
  | Some b ->
      flush_batch t b "reconfig";
      t.batch <- None

let set_batch_handler t bh = t.batch_handler <- Some bh

let call_async t ~src ?req_bytes ?resp_bytes req =
  let req_bytes = Option.value req_bytes ~default:t.params.Params.ctl_msg_bytes in
  let resp_bytes =
    Option.value resp_bytes ~default:t.params.Params.ctl_msg_bytes
  in
  let ivar = Ivar.create t.eng in
  (match t.batch with
  | Some b ->
      enqueue_batch t b ~bytes:req_bytes
        ~reply:(fun resp -> reply_courier t ~src ~resp_bytes ivar resp)
        req
  | None ->
      Engine.spawn t.eng ~name:(names t).req
        (fun () ->
          serve_span t "serve" req_bytes (fun () ->
              inbound t req_bytes;
              t.handler req ~reply:(fun resp ->
                  reply_courier t ~src ~resp_bytes ivar resp))));
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
  match t.batch with
  | Some b -> enqueue_batch t b ~bytes:req_bytes ~reply:(fun () -> ()) req
  | None ->
      Engine.spawn t.eng ~name:(names t).notify
        (fun () ->
          serve_span t "notify" req_bytes (fun () ->
              inbound t req_bytes;
              t.handler req ~reply:(fun () -> ())))

let calls t = t.count
let name t = t.name

(* ------------------------------------------------------------------ *)
(* Fenced transport: epoch checks, at-most-once dedup, crash fencing   *)
(* and fault injection.  The plain [call]/[notify] paths above are     *)
(* deliberately untouched — fenced semantics only apply where the HA   *)
(* layer asked for them.                                               *)
(* ------------------------------------------------------------------ *)

let set_down t down = t.down <- down
let is_down t = t.down
let set_epoch t e = t.epoch <- e
let epoch t = t.epoch

let reset t =
  (* A crash cuts the wires: in-flight requests addressed to the old
     incarnation are dropped at delivery, and the dedup table — volatile
     server memory — is lost with everything else. *)
  t.incarnation <- t.incarnation + 1;
  Hashtbl.reset t.dedup;
  Queue.clear t.dedup_order

let set_dedup_cap t cap =
  if cap < 1 then invalid_arg "Rpc.set_dedup_cap: cap must be >= 1";
  t.dedup_cap <- cap

(* Evict oldest completed dedup entries once over cap.  Pruning stops at
   the first still-pending entry: its parked reply senders must fire, and
   FIFO retention keeps the guarantee simple — everything newer than the
   oldest retained id is still deduplicated.  A slot whose entry is no
   longer the table's (purged by a re-submission, which queued a slot of
   its own) is dropped without touching the table. *)
let prune_dedup t =
  let continue = ref true in
  while !continue && Hashtbl.length t.dedup > t.dedup_cap do
    match Queue.peek_opt t.dedup_order with
    | None -> continue := false
    | Some e -> (
        match Hashtbl.find_opt t.dedup e.de_id with
        | Some live when live == e ->
            if Option.is_none e.de_result then continue := false
            else begin
              ignore (Queue.pop t.dedup_order);
              Hashtbl.remove t.dedup e.de_id
            end
        | Some _ | None -> ignore (Queue.pop t.dedup_order))
  done

let set_fault t ~loss ~dup ~rng =
  if loss < 0. || loss > 1. || dup < 0. || dup > 1. then
    invalid_arg "Rpc.set_fault: rates must be in [0,1]";
  t.fault <- Some { f_loss = loss; f_dup = dup; f_rng = rng }

let clear_fault t = t.fault <- None

(* Reply leg of a fenced call; drops the message instead of filling the
   ivar when the fault plane loses it, and tolerates duplicate arrivals
   (the ivar is first-writer-wins). *)
let reply_fenced t ~src ~resp_bytes ivar outcome =
  Engine.spawn t.eng ~name:(names t).reply
    (fun () ->
      Engine.sleep t.eng (t.params.Params.rtt /. 2.);
      let lost =
        match t.fault with
        | Some f -> f.f_rng () < f.f_loss
        | None -> false
      in
      if not lost then begin
        Node.add_net_bytes src resp_bytes;
        Resource.consume (pipe_for src t.params resp_bytes)
          (float_of_int resp_bytes);
        if not (Ivar.is_filled ivar) then Ivar.fill ivar outcome
      end)

(* One physical delivery of a fenced request.  Runs in a courier process:
   propagation, then — only if the server is still the same live
   incarnation — NIC + service costs, the epoch fence, and dedup. *)
let deliver_fenced t ~src ~req_bytes ~resp_bytes ~epoch:req_epoch ~req_id ~inc
    ivar req =
  Engine.sleep t.eng (t.params.Params.rtt /. 2.);
  if not (t.down || inc <> t.incarnation) then begin
    Node.add_net_bytes t.node req_bytes;
    Resource.consume (pipe_for t.node t.params req_bytes)
      (float_of_int req_bytes);
    Resource.consume (Node.ops t.node) 1.;
    (* The server may have crashed while the request sat in its NIC/ops
       queues; a dead incarnation must not run handlers. *)
    if not (t.down || inc <> t.incarnation) then begin
      Node.incr_rpc t.node;
      t.count <- t.count + 1;
      let send resp = reply_fenced t ~src ~resp_bytes ivar resp in
      if req_epoch < t.epoch then send (Stale t.epoch)
      else
        let send_reply resp = send (Reply (resp, t.epoch)) in
        match req_id with
        | None -> t.handler req ~reply:send_reply
        | Some id ->
            let run_fresh () =
              let e =
                { de_id = id; de_result = None; de_pending = [ send_reply ];
                  de_epoch = req_epoch }
              in
              Hashtbl.add t.dedup id e;
              Queue.push e t.dedup_order;
              prune_dedup t;
              t.handler req ~reply:(fun resp ->
                  match e.de_result with
                  | Some _ -> () (* handler double-reply: keep the first *)
                  | None ->
                      e.de_result <- Some resp;
                      let ps = List.rev e.de_pending in
                      e.de_pending <- [];
                      List.iter (fun send -> send resp) ps)
            in
            (match Hashtbl.find_opt t.dedup id with
            | Some e when e.de_result <> None && req_epoch > e.de_epoch ->
                (* The stored reply predates an epoch bump this caller has
                   already observed (a post-election re-submission): the
                   cached result belongs to the fenced-off regime, so purge
                   it and run the handler against the current state.  The
                   id's stale slot in [dedup_order] names the purged
                   entry, so pruning drops it without evicting this
                   re-submission. *)
                Hashtbl.remove t.dedup id;
                run_fresh ()
            | Some e -> (
                (* Retransmission (or duplicate) of a request we already
                   accepted: never re-run the handler. *)
                match e.de_result with
                | Some resp -> send_reply resp
                | None -> e.de_pending <- send_reply :: e.de_pending)
            | None -> run_fresh ())
    end
  end

let call_fenced t ~src ?req_bytes ?resp_bytes ?timeout ~epoch:req_epoch ?req_id
    req =
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
    Engine.spawn t.eng ~name:(names t).req
      (fun () ->
        serve_span t "serve" req_bytes (fun () ->
            deliver_fenced t ~src ~req_bytes ~resp_bytes ~epoch:req_epoch
              ~req_id ~inc ivar req))
  done;
  match timeout with
  | None -> Ivar.read ?ctx:(names t).wait_ctx ivar
  | Some d -> (
      match Ivar.read_timeout ?ctx:(names t).wait_ctx ivar ~timeout:d with
      | Some outcome -> outcome
      | None -> Timeout)

let note_retry t view ~attempt =
  Obs.Metrics.incr t.retry_counter;
  View.note_retry view;
  let sink = Engine.trace_sink t.eng in
  if Obs.Trace.enabled sink then
    Obs.Trace.instant sink ~ts:(Engine.now t.eng)
      ~tid:(Engine.current_pid t.eng) ~cat:"rpc"
      ~args:[ ("endpoint", Obs.Json.Str t.name); ("attempt", Obs.Json.Int attempt) ]
      "rpc.retry"

let call_reliable t ~src ?req_bytes ?resp_bytes ?reliability ~view req =
  let req_id = View.fresh_req_id view in
  let timeout = Option.map (fun r -> r.rel_timeout) reliability in
  let rec attempt k backoff =
    let req_epoch = View.epoch view t.name in
    let outcome =
      call_fenced t ~src ?req_bytes ?resp_bytes ?timeout ~epoch:req_epoch
        ~req_id req
    in
    let retry () =
      note_retry t view ~attempt:(k + 1);
      (match reliability with
      | None -> ()
      | Some _ ->
          (* Jittered exponential backoff; the jitter draw comes from the
             engine's deterministic stream. *)
          Engine.sleep t.eng
            (backoff +. Engine.random_float t.eng (backoff /. 2.)));
      (* Clamp the accumulator itself, not just the drawn delay: a long
         outage doubles it once per attempt, and an unclamped float
         marches toward infinity (and loses the plateau if the cap is
         ever applied after jitter). *)
      let next =
        match reliability with
        | None -> backoff
        | Some rel -> Float.min (backoff *. 2.) rel.rel_max_backoff
      in
      attempt (k + 1) next
    in
    match outcome with
    | Reply (resp, e) when e >= View.epoch view t.name ->
        View.observe view t.name e;
        resp
    | Reply _ ->
        (* A grant from a fenced-off epoch arrived after we learned of the
           recovery: discard it and re-submit against the new epoch. *)
        retry ()
    | Stale e ->
        View.observe view t.name e;
        retry ()
    | Timeout -> retry ()
  in
  attempt 0
    (match reliability with Some r -> r.rel_base_backoff | None -> 0.)

let send_reliable t ~src ?req_bytes ?reliability ~view req =
  Engine.spawn t.eng ~name:(names t).send
    (fun () ->
      ignore (call_reliable t ~src ?req_bytes ?reliability ~view req))
