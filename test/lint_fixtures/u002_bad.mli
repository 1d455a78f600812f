(* U002 plant: [unread] is an exported record field that u002_user.ml
   writes but no unit reads.  Must fire exactly once, here. *)

type t = { read : int; unread : int }
