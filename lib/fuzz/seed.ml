let env_var = "CCPFS_SEED"
let default = 0x5eed

let base () =
  match Sys.getenv_opt env_var with
  | None | Some "" -> default
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n -> n
      | None ->
          invalid_arg (Printf.sprintf "%s=%S is not an integer" env_var s))

let label name = Printf.sprintf "%s [%s=%d]" name env_var (base ())
(* Same stream as the historical Random.State.make call, but minted by
   Det_random so the D002 lint holds: no Stdlib.Random outside it. *)
let rand_state () = Ccpfs_util.Det_random.state_of_ints [| base (); 0x51a7e |]
