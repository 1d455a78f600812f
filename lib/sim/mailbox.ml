type 'a t = {
  eng : Engine.t;
  msgs : 'a Queue.t;
  waiters : ('a option ref * (unit -> unit)) Queue.t;
}

let create eng = { eng; msgs = Queue.create (); waiters = Queue.create () }

let send t msg =
  match Queue.take_opt t.waiters with
  | Some (cell, resume) ->
      cell := Some msg;
      resume ()
  | None -> Queue.add msg t.msgs

let recv ?(ctx = "mailbox") t =
  match Queue.take_opt t.msgs with
  | Some msg -> msg
  | None ->
      let cell = ref None in
      Engine.suspend ~ctx t.eng (fun resume -> Queue.add (cell, resume) t.waiters);
      (match !cell with
      | Some msg -> msg
      | None -> assert false)
