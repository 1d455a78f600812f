open Dessim

type state = Up | Down | Recovering

type entry = {
  e_name : string;
  mutable e_state : state;
  mutable e_epoch : int;
  mutable e_lease_until : float;
}

type t = { eng : Engine.t; lease : float; entries : entry array }

let create eng ~lease ~names =
  if lease <= 0. then invalid_arg "Membership.create: lease must be positive";
  {
    eng;
    lease;
    entries =
      Array.map
        (fun name ->
          { e_name = name; e_state = Up; e_epoch = 0; e_lease_until = lease })
        names;
  }

let name t i = t.entries.(i).e_name
let state t i = t.entries.(i).e_state
let epoch t i = t.entries.(i).e_epoch
let set_state t i s = t.entries.(i).e_state <- s

let bump_epoch t i =
  let e = t.entries.(i) in
  e.e_epoch <- e.e_epoch + 1;
  e.e_epoch

let renew_lease t i =
  t.entries.(i).e_lease_until <- Engine.now t.eng +. t.lease

let lease_expired t i = Engine.now t.eng > t.entries.(i).e_lease_until

let all_up t =
  Array.for_all (fun e -> e.e_state = Up) t.entries

let state_to_string = function
  | Up -> "up"
  | Down -> "down"
  | Recovering -> "recovering"
