(* U002 plant: [unread] is an exported record field that u002_user.ml
   writes but no unit reads, and [unseen] the same inside a
   constructor's inline record.  Must fire exactly twice, here. *)

type t = { read : int; unread : int }
type v = Cell of { seen : int; unseen : int }
