type 'a t = {
  eng : Engine.t;
  mutable value : 'a option;
  mutable waiters : (unit -> unit) list;
}

let create eng = { eng; value = None; waiters = [] }

let fill t v =
  match t.value with
  | Some _ -> invalid_arg "Ivar.fill: already filled"
  | None ->
      t.value <- Some v;
      let ws = List.rev t.waiters in
      t.waiters <- [];
      List.iter (fun resume -> resume ()) ws

let read ?(ctx = "ivar") t =
  match t.value with
  | Some v -> v
  | None ->
      Engine.suspend ~ctx t.eng (fun resume -> t.waiters <- resume :: t.waiters);
      (match t.value with Some v -> v | None -> assert false)

let await ?(ctx = "ivar") ?timeout t k =
  match (t.value, timeout) with
  | Some _, _ -> k ()
  | None, None ->
      Engine.Wait (Some ctx, (fun resume -> t.waiters <- resume :: t.waiters), k)
  | None, Some d ->
      if d < 0. then invalid_arg "Ivar.await: negative timeout";
      (* Race the fill against a timer: resume is idempotent (the engine
         guards re-entry), so whichever fires first wins and the loser is
         a no-op.  If the ivar is abandoned and filled later, the stale
         waiter entry resumes nothing. *)
      Engine.Wait
        ( Some ctx,
          (fun resume ->
            t.waiters <- resume :: t.waiters;
            Engine.schedule t.eng ~delay:d resume),
          k )

let is_filled t = Option.is_some t.value
let peek t = t.value
