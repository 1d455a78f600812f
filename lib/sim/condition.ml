type t = { eng : Engine.t; waiters : (unit -> unit) Queue.t }

let create eng = { eng; waiters = Queue.create () }

let wait ?(ctx = "condition") t =
  Engine.suspend ~ctx t.eng (fun resume -> Queue.add resume t.waiters)

let rec wait_until ?ctx t pred =
  if pred () then ()
  else begin
    wait ?ctx t;
    wait_until ?ctx t pred
  end

let signal t =
  match Queue.take_opt t.waiters with
  | Some resume -> resume ()
  | None -> ()

(* Runs on every client-cache write and lock release, usually with
   nobody waiting: an empty queue returns before anything is built. *)
let broadcast t =
  if not (Queue.is_empty t.waiters) then begin
    let ws = Queue.to_seq t.waiters |> List.of_seq in
    Queue.clear t.waiters;
    List.iter (fun resume -> resume ()) ws
  end
