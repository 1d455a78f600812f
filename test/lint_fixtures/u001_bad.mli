(* U001 plant: [orphan] is exported and nothing outside this unit
   names it.  Must fire exactly once, here. *)

val orphan : int -> int
