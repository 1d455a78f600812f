(* U002 clean case: every exported field is read — by field access from
   u002_user.ml, through a module alias there, by a record pattern in
   this unit's own implementation, and inside a submodule. *)

type t = { by_access : int; by_alias : int; by_pattern : int }

module Sub : sig
  type s = { in_sub : int }
end

val pattern : t -> int
