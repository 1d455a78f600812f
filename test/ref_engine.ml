(* The engine's event queue before it became an index heap with an
   arrival lane and a daemon heap, kept as the reference model for the
   differential property in test_sim.ml: one binary min-heap on
   (time, seq) in four parallel arrays whose sifts move every field,
   procs and thunks included, and every event queued in it, daemons'
   and [at] arrivals alike.  [Heap], [push_event]
   and [promote_tie] are verbatim, and so is [run] but for failing
   where the engine raises [Deadlock]; the engine around them keeps
   only what the property drives (no trace sink, metrics, seeded
   stream, blocked table or deadlock report). *)

type proc = {
  pid : int;
  name : string;
  name_fp : int;
  daemon : bool;
}

let no_thunk () = ()

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

  let shrink h =
    let cap = Array.length h.seqs / 2 in
    let cut a = Array.sub a 0 cap in
    h.times <- cut h.times;
    h.seqs <- cut h.seqs;
    h.procs <- cut h.procs;
    h.thunks <- cut h.thunks

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
  mutable live : int;
  mutable regular_spawned : int;
  mutable next_pid : int;
  mutable dispatched : int;
  mutable fp : int;
  mutable tie_chooser : (int -> int) option;
  mutable jitter : (unit -> float) option;
}

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
    regular_spawned = 0; next_pid = 0; dispatched = 0; fp = fnv_offset;
    tie_chooser = None; jitter = None }

let now t = t.now
let events_dispatched t = t.dispatched
let fingerprint t = Int64.of_int t.fp
let set_tie_chooser t f = t.tie_chooser <- Some f
let set_event_jitter t f = t.jitter <- Some f
let current_pid t = match t.current with Some p -> p.pid | None -> 0
let current_name t = Option.map (fun p -> p.name) t.current

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
  | Suspend : ((unit -> unit) -> unit) -> unit Effect.t
  | SleepFor : float -> unit Effect.t

let spawn t ?(daemon = false) ~name body =
  t.next_pid <- t.next_pid + 1;
  let proc =
    { pid = t.next_pid; name; name_fp = fnv_string fnv_offset name; daemon }
  in
  let some_proc = Some proc in
  if not daemon then begin
    t.live <- t.live + 1;
    t.regular_spawned <- t.regular_spawned + 1
  end;
  let finish () = if not daemon then t.live <- t.live - 1 in
  let open Effect.Deep in
  let exec () =
    match_with body ()
      {
        retc = (fun () -> finish ());
        exnc =
          (fun e ->
            finish ();
            t.current <- None;
            raise e);
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Suspend register ->
                Some
                  (fun (k : (a, _) continuation) ->
                    let resumed = ref false in
                    register (fun () ->
                        if not !resumed then begin
                          resumed := true;
                          push_event t t.now (-0.) some_proc (fun () ->
                              continue k ())
                        end))
            | SleepFor d ->
                Some
                  (fun (k : (a, _) continuation) ->
                    push_event t t.now d some_proc (fun () -> continue k ()))
            | _ -> None);
      }
  in
  push_event t t.now (-0.) some_proc exec

let suspend (_ : t) register = Effect.perform (Suspend register)

let sleep (_ : t) d =
  if d < 0. then invalid_arg "Engine.sleep: negative duration";
  if d = 0. then () else Effect.perform (SleepFor d)

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
      if t.live > 0 then failwith "Ref_engine: deadlock"
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
