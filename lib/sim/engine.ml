type blocked_proc = {
  b_name : string;
  b_pid : int;
  b_daemon : bool;
  b_context : string option;
}

exception Deadlock of blocked_proc list

let blocked_names ?(daemons = false) bs =
  List.filter_map
    (fun b -> if b.b_daemon && not daemons then None else Some b.b_name)
    bs

let pp_blocked ppf (b : blocked_proc) =
  Format.fprintf ppf "%s%s blocked on %s" b.b_name
    (if b.b_daemon then " (daemon)" else "")
    (Option.value b.b_context ~default:"<unknown>")

type proc = {
  pid : int;
  name : string;
  name_fp : int; (* FNV digest of [name], folded into the event fingerprint *)
  daemon : bool;
  mutable blocked : bool;
  mutable wait_ctx : string option;
  mutable done_ : bool;
}

(* The closed, statically allocated filler for empty thunk slots.  Every
   array slot starts as an immediate or this constant: filling a fresh
   array with a young block would force a minor collection. *)
let no_thunk () = ()

(* Binary min-heap on (time, seq) kept in four parallel arrays, so a
   pending event is one slot in each and no block of its own: the times
   are unboxed in a float array, and [procs] holds the process's own
   [Some proc], allocated once at spawn.  seq breaks ties
   deterministically in scheduling order.  Sifts carry a hole instead of
   swapping, and compare keys inline: without flambda, ocamlopt boxes
   the float argument of every call to a function it does not inline,
   so a comparison helper taking a key would allocate at each step. *)
module Heap = struct
  type t = {
    mutable times : float array;
    mutable seqs : int array;
    mutable procs : proc option array;
    mutable thunks : (unit -> unit) array;
    mutable n : int;
  }

  let initial = 1024

  let create () =
    { times = Array.make initial 0.; seqs = Array.make initial 0;
      procs = Array.make initial None; thunks = Array.make initial no_thunk;
      n = 0 }

  let grow h =
    let cap = 2 * Array.length h.seqs in
    let extend a fill =
      let b = Array.make cap fill in
      Array.blit a 0 b 0 h.n;
      b
    in
    h.times <- extend h.times 0.;
    h.seqs <- extend h.seqs 0;
    h.procs <- extend h.procs None;
    h.thunks <- extend h.thunks no_thunk

  (* Halve the arrays once they are under a quarter full.  An open-loop
     run queues its whole arrival schedule up front and then drains it
     while its other state grows, so arrays kept at their peak size
     would sit on top of the run's heap peak at its end. *)
  let shrink h =
    let cap = Array.length h.seqs / 2 in
    let cut a = Array.sub a 0 cap in
    h.times <- cut h.times;
    h.seqs <- cut h.seqs;
    h.procs <- cut h.procs;
    h.thunks <- cut h.thunks

  (* The key is [base +. offset], added here so that the sum is never
     boxed: callers pass floats they already hold boxed (the clock, a
     sleep's duration).  [offset = -0.] keeps [base] bit for bit, -0.
     included. *)
  let push h base offset seq proc thunk =
    if h.n = Array.length h.seqs then grow h;
    let time = base +. offset in
    let times = h.times and seqs = h.seqs and procs = h.procs
    and thunks = h.thunks in
    let i = ref h.n in
    h.n <- h.n + 1;
    let rising = ref true in
    while !rising && !i > 0 do
      let p = (!i - 1) / 2 in
      let pt = times.(p) in
      if time < pt || (time = pt && seq < seqs.(p)) then begin
        times.(!i) <- pt;
        seqs.(!i) <- seqs.(p);
        procs.(!i) <- procs.(p);
        thunks.(!i) <- thunks.(p);
        i := p
      end
      else rising := false
    done;
    times.(!i) <- time;
    seqs.(!i) <- seq;
    procs.(!i) <- proc;
    thunks.(!i) <- thunk

  (* Drop the minimum (slot 0, which the caller has already read): the
     last entry fills the hole from the top and sinks to its place. *)
  let remove_top h =
    let n = h.n - 1 in
    h.n <- n;
    if n < Array.length h.seqs / 4 && Array.length h.seqs > initial then
      shrink h;
    let times = h.times and seqs = h.seqs and procs = h.procs
    and thunks = h.thunks in
    let time = times.(n) and seq = seqs.(n) and proc = procs.(n)
    and thunk = thunks.(n) in
    procs.(n) <- None;
    thunks.(n) <- no_thunk;
    if n > 0 then begin
      let i = ref 0 in
      let sinking = ref true in
      while !sinking do
        let l = (2 * !i) + 1 in
        if l >= n then sinking := false
        else begin
          let r = l + 1 in
          let c =
            if
              r < n
              && (times.(r) < times.(l)
                 || (times.(r) = times.(l) && seqs.(r) < seqs.(l)))
            then r
            else l
          in
          let ct = times.(c) in
          if ct < time || (ct = time && seqs.(c) < seq) then begin
            times.(!i) <- ct;
            seqs.(!i) <- seqs.(c);
            procs.(!i) <- procs.(c);
            thunks.(!i) <- thunks.(c);
            i := c
          end
          else sinking := false
        end
      done;
      times.(!i) <- time;
      seqs.(!i) <- seq;
      procs.(!i) <- proc;
      thunks.(!i) <- thunk
    end
end

type t = {
  mutable now : float;
  mutable seq : int;
  heap : Heap.t;
  mutable current : proc option;
  mutable live : int; (* regular (non-daemon) processes not yet done *)
  mutable regular_spawned : int;
  mutable next_pid : int;
  mutable dispatched : int;
  blocked_procs : (int, proc) Hashtbl.t;
      (* procs currently in [suspend], by pid: suspend/resume are per-RPC
         operations, so membership updates must be O(1) — a list scan per
         resume was quadratic in blocked clients under contention.
         Sleeping procs are not here: their wake event is in the queue,
         and [blocked_report] finds them there. *)
  mutable fp : int;
  mutable tie_chooser : (int -> int) option;
  mutable jitter : (unit -> float) option;
  mutable sink : Obs.Trace.sink; (* Trace.null unless a run is traced *)
  metrics : Obs.Metrics.t; (* per-engine registry, starts disabled *)
  mutable rand : Ccpfs_util.Det_random.t;
      (* engine-held deterministic stream: retry backoff jitter and any
         other protocol-level randomness draw from here so two runs of the
         same scenario see the same values in the same order *)
}

(* FNV-1a folded in the native int width: the event-stream fingerprint
   two runs of the same scenario must agree on (the determinism
   sanitizer's divergence test).  Fingerprints are only ever compared
   against fingerprints computed in the same process, never persisted,
   so the exact modulus does not matter — what matters is that hashing
   is allocation-free.  The engine hashes every dispatched event; the
   previous boxed-Int64 FNV allocated ~30 Int64s per event and dominated
   contended-run profiles. *)
let fnv_offset = Int64.to_int 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3
let fnv_byte h b = (h lxor (b land 0xff)) * fnv_prime

let fnv_int h x =
  let h = ref h in
  for i = 0 to 7 do
    h := fnv_byte !h (x asr (8 * i))
  done;
  !h

let fnv_string h s =
  let h = ref h in
  String.iter (fun c -> h := fnv_byte !h (Char.code c)) s;
  !h

let create () =
  { now = 0.; seq = 0; heap = Heap.create (); current = None; live = 0;
    regular_spawned = 0; next_pid = 0; dispatched = 0; blocked_procs = Hashtbl.create 64;
    fp = fnv_offset; tie_chooser = None; jitter = None; sink = Obs.Trace.null;
    metrics = Obs.Metrics.create ();
    rand = Ccpfs_util.Det_random.create ~seed:0x9e3779b9 }

let now t = t.now
let live_processes t = t.live
let events_dispatched t = t.dispatched
let fingerprint t = Int64.of_int t.fp
let set_tie_chooser t f = t.tie_chooser <- Some f
let clear_tie_chooser t = t.tie_chooser <- None
let set_event_jitter t f = t.jitter <- Some f
let clear_event_jitter t = t.jitter <- None

let seed_nondeterminism ?(max_jitter = 0.) ~seed t =
  let rng = Ccpfs_util.Det_random.create ~seed in
  let tie_rng = Ccpfs_util.Det_random.split rng in
  set_tie_chooser t (fun n -> Ccpfs_util.Det_random.int tie_rng n);
  if max_jitter > 0. then begin
    let jitter_rng = Ccpfs_util.Det_random.split rng in
    set_event_jitter t (fun () ->
        Ccpfs_util.Det_random.float jitter_rng max_jitter)
  end;
  t.rand <- Ccpfs_util.Det_random.split rng

let random_float t bound =
  if bound <= 0. then 0. else Ccpfs_util.Det_random.float t.rand bound
let trace_sink t = t.sink
let set_trace_sink t sink = t.sink <- sink
let metrics t = t.metrics
let current_pid t = match t.current with Some p -> p.pid | None -> 0
let current_name t = Option.map (fun p -> p.name) t.current

(* Every freshly scheduled event passes through the jitter hook (legal-
   delivery perturbation: any event may run later than asked, never
   earlier).  The tie chooser's re-push path in [promote_tie] uses
   [Heap.push] directly, so deferred ties are not jittered twice.  The
   event's time is [base +. offset] (see [Heap.push]). *)
let push_event t base offset proc thunk =
  t.seq <- t.seq + 1;
  match t.jitter with
  | None -> Heap.push t.heap base offset t.seq proc thunk
  | Some f ->
      let d = f () in
      if d < 0. || not (Float.is_finite d) then
        invalid_arg "Engine: jitter hook returned a negative or NaN delay";
      Heap.push t.heap (base +. offset) d t.seq proc thunk

let schedule t ?(delay = 0.) thunk =
  if delay < 0. then invalid_arg "Engine.schedule: negative delay";
  push_event t t.now delay None thunk

let at t ~time thunk =
  if time < t.now || not (Float.is_finite time) then
    invalid_arg "Engine.at: time in the past or not finite";
  push_event t time (-0.) None thunk

type _ Effect.t +=
  | Suspend : string option * ((unit -> unit) -> unit) -> unit Effect.t
  | SleepFor : float -> unit Effect.t
        (* timed suspension with a dedicated wake: the continuation IS the
           scheduled event.  [Suspend] needs two events per wake (the waker
           runs in some other process's frame and must defer the
           continuation); a sleep's wake belongs to no one else, so the
           deferral would be pure overhead — and sleeps dominate the event
           stream (three per RPC courier). *)

let mark_blocked t proc ctx =
  proc.blocked <- true;
  proc.wait_ctx <- ctx;
  Hashtbl.replace t.blocked_procs proc.pid proc

let mark_unblocked t proc =
  proc.blocked <- false;
  proc.wait_ctx <- None;
  Hashtbl.remove t.blocked_procs proc.pid

let sleep_ctx = Some "sleep"

let spawn t ?(daemon = false) ~name body =
  t.next_pid <- t.next_pid + 1;
  let proc =
    { pid = t.next_pid; name; name_fp = fnv_string fnv_offset name; daemon;
      blocked = false; wait_ctx = None; done_ = false }
  in
  (* the one [Some proc] every event of this process carries *)
  let some_proc = Some proc in
  if not daemon then begin
    t.live <- t.live + 1;
    t.regular_spawned <- t.regular_spawned + 1
  end;
  if Obs.Trace.enabled t.sink then
    Obs.Trace.thread_name t.sink ~tid:proc.pid name;
  let finish () =
    proc.done_ <- true;
    if not daemon then t.live <- t.live - 1
  in
  let open Effect.Deep in
  let exec () =
    match_with body ()
      {
        retc = (fun () -> finish ());
        exnc =
          (fun e ->
            (* The process dies abnormally and the exception is about to
               unwind through [run] to the caller: leave the engine in a
               consistent state so post-mortems ([blocked_report]) and a
               resumed [run] don't see the dead process as current or
               waiting. *)
            finish ();
            t.current <- None;
            Hashtbl.remove t.blocked_procs proc.pid;
            raise e);
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Suspend (ctx, register) ->
                Some
                  (fun (k : (a, _) continuation) ->
                    let resumed = ref false in
                    mark_blocked t proc ctx;
                    match
                      register (fun () ->
                          if not !resumed then begin
                            resumed := true;
                            mark_unblocked t proc;
                            push_event t t.now (-0.) some_proc (fun () ->
                                continue k ())
                          end)
                    with
                    | () -> ()
                    | exception e ->
                        (* A blocking primitive failed while registering
                           (bad argument, broken invariant): deliver the
                           exception into the fiber at the suspension
                           point so it unwinds the process body and the
                           [exnc] cleanup above runs. *)
                        mark_unblocked t proc;
                        discontinue k e)
            | SleepFor d ->
                Some
                  (fun (k : (a, _) continuation) ->
                    (* no [blocked_procs] entry: the wake event below
                       names the sleeper for [blocked_report] *)
                    proc.blocked <- true;
                    proc.wait_ctx <- sleep_ctx;
                    push_event t t.now d some_proc (fun () ->
                        proc.blocked <- false;
                        proc.wait_ctx <- None;
                        continue k ()))
            | _ -> None);
      }
  in
  push_event t t.now (-0.) some_proc exec

let suspend ?ctx _t register = Effect.perform (Suspend (ctx, register))

let sleep (_ : t) d =
  if d < 0. then invalid_arg "Engine.sleep: negative duration";
  if d = 0. then () else Effect.perform (SleepFor d)

(* Suspended processes come from [blocked_procs]; sleeping ones from
   their pending wake events, the only queued events whose process is
   marked blocked (a spawn is queued before its process first blocks, a
   resumed continuation after [mark_unblocked]).  A post-mortem only: it
   scans the whole queue. *)
let blocked_report t =
  let h = t.heap in
  let sleeping = ref [] in
  for i = 0 to h.Heap.n - 1 do
    match h.Heap.procs.(i) with
    | Some p when p.blocked -> sleeping := p :: !sleeping
    | Some _ | None -> ()
  done;
  Ccpfs_util.Det_tbl.fold_sorted ~cmp:Int.compare
    (fun _ p acc -> p :: acc)
    t.blocked_procs !sleeping
  |> List.sort (fun a b -> Int.compare a.pid b.pid)
  |> List.map (fun p ->
         { b_name = p.name; b_pid = p.pid; b_daemon = p.daemon;
           b_context = p.wait_ctx })

(* With a tie chooser installed, all events sharing the minimal
   timestamp are candidates and the chooser picks among them (in seq
   order) — the schedule explorer's lever for enumerating same-timestamp
   interleavings.  The others go back under their own seqs; the pick
   goes back under seq -1, below every real seq (which start at 1), so
   it is the root [run] dispatches next. *)
let promote_tie t choose =
  let h = t.heap in
  let time = h.Heap.times.(0) in
  let ties = ref [] in
  while h.Heap.n > 0 && h.Heap.times.(0) = time do
    ties := (h.Heap.seqs.(0), h.Heap.procs.(0), h.Heap.thunks.(0)) :: !ties;
    Heap.remove_top h
  done;
  let ties = List.rev !ties in
  let n = List.length ties in
  let pick = if n = 1 then 0 else choose n in
  if pick < 0 || pick >= n then
    invalid_arg "Engine: tie chooser returned an out-of-range index";
  List.iteri
    (fun i (seq, proc, thunk) ->
      Heap.push h time (-0.) (if i = pick then -1 else seq) proc thunk)
    ties

let run ?until t =
  let stop_time = Option.value until ~default:infinity in
  let h = t.heap in
  let rec loop () =
    if t.regular_spawned > 0 && t.live = 0 then ()
    else if h.Heap.n = 0 then begin
      if t.live > 0 then raise (Deadlock (blocked_report t))
    end
    else if h.Heap.times.(0) > stop_time then t.now <- stop_time
    else begin
      (match t.tie_chooser with
      | None -> ()
      | Some choose -> promote_tie t choose);
      let time = h.Heap.times.(0) and proc = h.Heap.procs.(0)
      and thunk = h.Heap.thunks.(0) in
      Heap.remove_top h;
      let bits = Int64.bits_of_float time in
      (* the clock is a boxed field: store only when it moves *)
      if bits <> Int64.bits_of_float t.now then t.now <- time;
      t.current <- proc;
      t.dispatched <- t.dispatched + 1;
      let fp = fnv_int t.fp (Int64.to_int bits) in
      t.fp <-
        (match proc with
        | Some p -> fnv_int (fnv_int fp p.pid) p.name_fp
        | None -> fnv_byte fp 0);
      thunk ();
      t.current <- None;
      loop ()
    end
  in
  loop ()
