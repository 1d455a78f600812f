let env_var = "CCPFS_SEED"
let default = 0x5eed
let base () = Ccpfs_util.Knob.int env_var ~default ~min:0

let label name = Printf.sprintf "%s [%s=%d]" name env_var (base ())
(* Same stream as the historical Random.State.make call, but minted by
   Det_random so the D002 lint holds: no Stdlib.Random outside it. *)
let rand_state () = Ccpfs_util.Det_random.state_of_ints [| base (); 0x51a7e |]
