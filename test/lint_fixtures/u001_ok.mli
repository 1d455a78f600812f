(* U001 clean case: every export is named by u001_user.ml, one by a
   qualified path, one through [open], one through a module alias and
   one as a member of a functor's parameter signature. *)

val by_path : int -> int
val by_open : int -> int
val by_alias : int -> int
val by_functor : int -> int
