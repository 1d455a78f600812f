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

type step =
  | Done
  | Sleep of float * (unit -> step)
  | Wait of string option * ((unit -> unit) -> unit) * (unit -> step)
  | Fiber of (unit -> unit)

type proc = {
  pid : int;
  name : string;
  name_fp : int; (* FNV digest of [name], folded into the event fingerprint *)
  daemon : bool;
  mutable blocked : bool;
  mutable wait_ctx : string option;
  mutable done_ : bool;
  mutable resume_at : unit -> step; (* the step [wake] runs next *)
  mutable wake : unit -> unit;
      (* the thunk of every wake-up of a [Sleep] or [Wait] step, built at
         the process's first one: one closure per process instead of one
         per event *)
}

(* The closed, statically allocated filler for empty thunk slots.  Every
   array slot starts as an immediate or this constant: filling a fresh
   array with a young block would force a minor collection. *)
let no_thunk () = ()

(* Binary min-heap on (time, seq) over an index: the heap arrays hold
   only the keys, unboxed (times in a float array, seqs), and each
   entry's [slot] in a pool where its process and thunk are written
   once, at push.  A sift therefore moves three immediates per level and
   never a pointer into the major heap, so it costs no write barrier.
   [slots] is a permutation of the pool: positions [0, n) name the live
   slots in heap order and positions [n, capacity) the free ones, so the
   next push takes [slots.(n)] and a pop puts its slot back there — no
   separate free list.  seq breaks ties deterministically in scheduling
   order.  Sifts carry a hole instead of swapping, and compare keys
   inline: without flambda, ocamlopt boxes the float argument of every
   call to a function it does not inline, so a comparison helper taking
   a key would allocate at each step. *)
module Heap = struct
  type t = {
    mutable times : float array;
    mutable seqs : int array;
    mutable slots : int array;
    mutable procs : proc option array; (* the pool, by slot *)
    mutable thunks : (unit -> unit) array; (* the pool, by slot *)
    mutable n : int;
  }

  let initial = 1024

  let create () =
    { times = Array.make initial 0.; seqs = Array.make initial 0;
      slots = Array.init initial Fun.id; procs = Array.make initial None;
      thunks = Array.make initial no_thunk; n = 0 }

  (* Only a full heap grows, so every old slot is live and the new ones
     are free, in the new positions. *)
  let grow h =
    let cap = 2 * h.n in
    let extend a fill =
      let b = Array.make cap fill in
      Array.blit a 0 b 0 h.n;
      b
    in
    h.times <- extend h.times 0.;
    h.seqs <- extend h.seqs 0;
    h.slots <- Array.init cap (fun i -> if i < h.n then h.slots.(i) else i);
    h.procs <- extend h.procs None;
    h.thunks <- extend h.thunks no_thunk

  (* The key is [base +. offset], added here so that the sum is never
     boxed: callers pass floats they already hold boxed (the clock, a
     sleep's duration).  [offset = -0.] keeps [base] bit for bit, -0.
     included. *)
  let push h base offset seq proc thunk =
    if h.n = Array.length h.seqs then grow h;
    let time = base +. offset in
    let times = h.times and seqs = h.seqs and slots = h.slots in
    let i = ref h.n in
    let slot = slots.(!i) in
    h.procs.(slot) <- proc;
    h.thunks.(slot) <- thunk;
    h.n <- h.n + 1;
    let rising = ref true in
    while !rising && !i > 0 do
      let p = (!i - 1) / 2 in
      let pt = times.(p) in
      if time < pt || (time = pt && seq < seqs.(p)) then begin
        times.(!i) <- pt;
        seqs.(!i) <- seqs.(p);
        slots.(!i) <- slots.(p);
        i := p
      end
      else rising := false
    done;
    times.(!i) <- time;
    seqs.(!i) <- seq;
    slots.(!i) <- slot

  (* Drop the minimum (position 0, whose pool entry the caller has
     already read): its slot is cleared, the last entry fills the hole
     from the top and sinks to its place, and the freed slot goes to
     the first free position. *)
  let remove_top h =
    let n = h.n - 1 in
    h.n <- n;
    let times = h.times and seqs = h.seqs and slots = h.slots in
    let top = slots.(0) in
    h.procs.(top) <- None;
    h.thunks.(top) <- no_thunk;
    if n > 0 then begin
      let time = times.(n) and seq = seqs.(n) and slot = slots.(n) in
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
            slots.(!i) <- slots.(c);
            i := c
          end
          else sinking := false
        end
      done;
      times.(!i) <- time;
      seqs.(!i) <- seq;
      slots.(!i) <- slot;
      slots.(n) <- top
    end
end

(* The arrival lane: a FIFO of [at] events whose times never decrease
   (an open-loop arrival schedule, installed up front), so they need no
   heap at all.  Entries [head, tail) are pending, each in sorted
   (time, seq) order — times nondecreasing, seqs increasing as taken.
   The arrays start empty (a closed-loop run never uses the lane),
   double when the tail reaches the end with more than half of them
   pending, are compacted to the front otherwise, and halve once under
   a quarter full, so a drained schedule does not sit on the run's heap
   peak. *)
module Lane = struct
  type t = {
    mutable times : float array;
    mutable seqs : int array;
    mutable thunks : (unit -> unit) array;
    mutable head : int;
    mutable tail : int;
  }

  let initial = 1024

  let create () = { times = [||]; seqs = [||]; thunks = [||]; head = 0; tail = 0 }

  let is_empty l = l.head = l.tail

  (* [time] keeps the lane sorted if appended. *)
  let accepts l time = l.head = l.tail || time >= l.times.(l.tail - 1)

  let resize l cap =
    let live = l.tail - l.head in
    let move a fill =
      let b = Array.make cap fill in
      Array.blit a l.head b 0 live;
      b
    in
    l.times <- move l.times 0.;
    l.seqs <- move l.seqs 0;
    l.thunks <- move l.thunks no_thunk;
    l.head <- 0;
    l.tail <- live

  let push l time seq thunk =
    let cap = Array.length l.seqs in
    if l.tail = cap then
      resize l
        (if cap = 0 then initial
         else if 2 * (l.tail - l.head) > cap then 2 * cap
         else cap);
    l.times.(l.tail) <- time;
    l.seqs.(l.tail) <- seq;
    l.thunks.(l.tail) <- thunk;
    l.tail <- l.tail + 1

  (* Remove the head and return its thunk. *)
  let pop l =
    let thunk = l.thunks.(l.head) in
    l.thunks.(l.head) <- no_thunk;
    l.head <- l.head + 1;
    if l.head = l.tail then begin
      l.head <- 0;
      l.tail <- 0
    end;
    let cap = Array.length l.seqs in
    if 4 * (l.tail - l.head) < cap && cap > initial then resize l (cap / 2);
    thunk
end

type t = {
  mutable now : float;
  mutable seq : int;
  heap : Heap.t;
  lane : Lane.t; (* in-order [at] events, merged with [heap] by [run] *)
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

(* FNV-1a, one byte at a time, wrapping in the native 63-bit int: the
   event-stream fingerprint two runs of the same scenario must agree on
   (the determinism sanitizer's divergence test).  It is also persisted:
   every fuzz case's fingerprint folds into the corpus fingerprint that
   BENCH_fuzz.json and golden/fuzz_faults.expected pin.  The offset, the
   prime, the byte order and the 63-bit modulus are therefore frozen;
   changing any of them moves those goldens.  Hashing is allocation-free:
   the engine hashes every dispatched event, and the earlier boxed-Int64
   FNV allocated ~30 Int64s per event and dominated contended-run
   profiles. *)
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
  { now = 0.; seq = 0; heap = Heap.create (); lane = Lane.create ();
    current = None; live = 0;
    regular_spawned = 0; next_pid = 0; dispatched = 0; blocked_procs = Hashtbl.create 64;
    fp = fnv_offset; tie_chooser = None; jitter = None; sink = Obs.Trace.null;
    metrics = Obs.Metrics.create ();
    rand = Ccpfs_util.Det_random.create ~seed:0x9e3779b9 }

let now t = t.now
let events_dispatched t = t.dispatched
let fingerprint t = Int64.of_int t.fp

(* A chooser must be offered every event tied at the minimal time, so
   the lane's pending events move into the heap under their own keys;
   while a chooser is installed, [at] bypasses the lane. *)
let set_tie_chooser t f =
  let l = t.lane in
  while not (Lane.is_empty l) do
    let time = l.Lane.times.(l.Lane.head) and seq = l.Lane.seqs.(l.Lane.head) in
    let thunk = Lane.pop l in
    Heap.push t.heap time (-0.) seq None thunk
  done;
  t.tie_chooser <- Some f
let set_event_jitter t f = t.jitter <- Some f

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
  if delay < 0. || not (Float.is_finite delay) then
    invalid_arg "Engine.schedule: negative or non-finite delay";
  push_event t t.now delay None thunk

(* An arrival goes into the lane when it keeps the lane sorted and
   nothing would act on it at install time: a jitter hook would move
   its time, and with a tie chooser installed every event must be in
   the heap.  It takes its seq here either way, so the merge in [run]
   dispatches it exactly where the heap alone would have. *)
let at t ~time thunk =
  if time < t.now || not (Float.is_finite time) then
    invalid_arg "Engine.at: time in the past or not finite";
  match (t.jitter, t.tie_chooser) with
  | None, None when Lane.accepts t.lane time ->
      t.seq <- t.seq + 1;
      Lane.push t.lane time t.seq thunk
  | _ -> push_event t time (-0.) None thunk

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

type proc_name = { text : string; digest : int }

let proc_name text = { text; digest = fnv_string fnv_offset text }

let finish t proc =
  proc.done_ <- true;
  if not proc.daemon then t.live <- t.live - 1

(* The process dies abnormally and the exception is about to unwind
   through [run] to the caller: leave the engine in a consistent state
   so post-mortems ([blocked_report]) and a resumed [run] don't see the
   dead process as current or waiting. *)
let die t proc e =
  finish t proc;
  t.current <- None;
  Hashtbl.remove t.blocked_procs proc.pid;
  raise e

(* The effect handlers of a [Fiber] step: the fiber runs [body] now, in
   the current event, and every blocking call inside it suspends the
   fiber under [proc]. *)
let run_fiber t proc some_proc body =
  let open Effect.Deep in
  match_with body ()
    {
      retc = (fun () -> finish t proc);
      exnc = (fun e -> die t proc e);
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

let bad_sleep = Invalid_argument "Engine.sleep: negative or non-finite duration"

(* Run the steps of [proc] from [s] on, in the current event, until one
   blocks.  A [Sleep] and a [Wait] push exactly the events the
   [SleepFor] and [Suspend] handlers above push, and mark the process
   blocked the same way, so a step process and a fiber doing the same
   thing are one event stream. *)
let rec drive t proc some_proc s =
  match s with
  | Done -> finish t proc
  | Sleep (d, k) ->
      if d < 0. || not (Float.is_finite d) then die t proc bad_sleep
      else if d = 0. then drive t proc some_proc (next t proc k)
      else begin
        proc.blocked <- true;
        proc.wait_ctx <- sleep_ctx;
        proc.resume_at <- k;
        push_event t t.now d some_proc (wake_of t proc some_proc)
      end
  | Wait (ctx, register, k) -> (
      let resumed = ref false in
      mark_blocked t proc ctx;
      proc.resume_at <- k;
      let wake = wake_of t proc some_proc in
      match
        register (fun () ->
            if not !resumed then begin
              resumed := true;
              mark_unblocked t proc;
              push_event t t.now (-0.) some_proc wake
            end)
      with
      | () -> ()
      | exception e ->
          mark_unblocked t proc;
          die t proc e)
  | Fiber body -> run_fiber t proc some_proc body

and next t proc k = match k () with s -> s | exception e -> die t proc e

and wake_of t proc some_proc =
  if proc.wake == no_thunk then
    proc.wake <-
      (fun () ->
        proc.blocked <- false;
        proc.wait_ctx <- None;
        drive t proc some_proc (next t proc proc.resume_at));
  proc.wake

let no_step () = Done

let spawn_steps t ?(daemon = false) ~name first =
  t.next_pid <- t.next_pid + 1;
  let proc =
    { pid = t.next_pid; name = name.text; name_fp = name.digest; daemon;
      blocked = false; wait_ctx = None; done_ = false; resume_at = no_step;
      wake = no_thunk }
  in
  (* the one [Some proc] every event of this process carries *)
  let some_proc = Some proc in
  if not daemon then begin
    t.live <- t.live + 1;
    t.regular_spawned <- t.regular_spawned + 1
  end;
  if Obs.Trace.enabled t.sink then
    Obs.Trace.thread_name t.sink ~tid:proc.pid name.text;
  push_event t t.now (-0.) some_proc (fun () ->
      drive t proc some_proc (next t proc first))

let spawn t ?daemon ~name body =
  spawn_steps t ?daemon ~name:(proc_name name) (fun () -> Fiber body)

let suspend ?ctx _t register = Effect.perform (Suspend (ctx, register))

let sleep (_ : t) d =
  if d < 0. || not (Float.is_finite d) then raise bad_sleep;
  if d = 0. then () else Effect.perform (SleepFor d)

let rec run_steps t = function
  | Done -> ()
  | Sleep (d, k) ->
      sleep t d;
      run_steps t (k ())
  | Wait (ctx, register, k) ->
      suspend ?ctx t register;
      run_steps t (k ())
  | Fiber body -> body ()

(* Suspended processes come from [blocked_procs]; sleeping ones from
   their pending wake events, the only queued events whose process is
   marked blocked (a spawn is queued before its process first blocks, a
   resumed continuation after [mark_unblocked]).  A post-mortem only: it
   scans the whole heap (the lane holds no process events). *)
let blocked_report t =
  let h = t.heap in
  let sleeping = ref [] in
  for i = 0 to h.Heap.n - 1 do
    match h.Heap.procs.(h.Heap.slots.(i)) with
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
   it is the root [run] dispatches next.  The lane is empty while a
   chooser is installed (see [set_tie_chooser]), so the heap holds
   every tie. *)
let promote_tie t choose =
  let h = t.heap in
  let time = h.Heap.times.(0) in
  let ties = ref [] in
  while h.Heap.n > 0 && h.Heap.times.(0) = time do
    let slot = h.Heap.slots.(0) in
    ties := (h.Heap.seqs.(0), h.Heap.procs.(slot), h.Heap.thunks.(slot)) :: !ties;
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

(* The next event is the smaller by (time, seq) of the heap's root and
   the lane's head: both are sorted by that key and every seq is
   unique, so the merge is the order one queue holding both would
   give. *)
let run ?until t =
  let stop_time = Option.value until ~default:infinity in
  let h = t.heap and l = t.lane in
  let rec loop () =
    if t.regular_spawned > 0 && t.live = 0 then ()
    else
      let from_lane =
        (not (Lane.is_empty l))
        && (h.Heap.n = 0
           ||
           let lt = l.Lane.times.(l.Lane.head) and ht = h.Heap.times.(0) in
           lt < ht || (lt = ht && l.Lane.seqs.(l.Lane.head) < h.Heap.seqs.(0)))
      in
      if (not from_lane) && h.Heap.n = 0 then begin
        if t.live > 0 then raise (Deadlock (blocked_report t))
      end
      else
        let time =
          if from_lane then l.Lane.times.(l.Lane.head) else h.Heap.times.(0)
        in
        if time > stop_time then t.now <- stop_time
        else begin
          let thunk =
            if from_lane then Lane.pop l
            else begin
              (match t.tie_chooser with
              | None -> ()
              | Some choose -> promote_tie t choose);
              let slot = h.Heap.slots.(0) in
              let thunk = h.Heap.thunks.(slot) in
              t.current <- h.Heap.procs.(slot);
              Heap.remove_top h;
              thunk
            end
          in
          let bits = Int64.bits_of_float time in
          (* the clock is a boxed field: store only when it moves *)
          if bits <> Int64.bits_of_float t.now then t.now <- time;
          t.dispatched <- t.dispatched + 1;
          let fp = fnv_int t.fp (Int64.to_int bits) in
          t.fp <-
            (match t.current with
            | Some p -> fnv_int (fnv_int fp p.pid) p.name_fp
            | None -> fnv_byte fp 0);
          thunk ();
          t.current <- None;
          loop ()
        end
  in
  loop ()
