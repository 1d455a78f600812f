(* U002 clean case: every exported field is read — by field access from
   u002_user.ml, through a module alias there, by a record pattern in
   this unit's own implementation, and inside a submodule; a
   constructor's inline fields by pattern here and by field access in
   u002_user.ml. *)

type t = { by_access : int; by_alias : int; by_pattern : int }

module Sub : sig
  type s = { in_sub : int }
end

type v = Box of { by_cstr_pattern : int; by_cstr_access : int }

val pattern : t -> int
val unbox : v -> int
