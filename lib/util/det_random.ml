type t = { state : Random.State.t; mutable splits : int; seed : int }

let create ~seed =
  { state = Random.State.make [| seed; 0x5ed1 |]; splits = 0; seed }

let split t =
  t.splits <- t.splits + 1;
  create ~seed:((t.seed * 0x9e3779b9) lxor t.splits)

let int t bound = Random.State.int t.state bound
let float t bound = Random.State.float t.state bound
let bool t = Random.State.bool t.state

let pick t a =
  if Array.length a = 0 then invalid_arg "Det_random.pick: empty array";
  a.(int t (Array.length a))

(* For consumers that need a raw [Random.State.t] (QCheck's [~rand]):
   still explicitly seeded, and minted here so this stays the only
   module that touches [Stdlib.Random] (lint rule D002). *)
let state_of_ints ints = Random.State.make ints
