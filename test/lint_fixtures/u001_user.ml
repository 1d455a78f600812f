(* The sibling unit whose references keep u001_ok.mli's exports alive. *)

let qualified = U001_ok.by_path 1

module A = U001_ok

let aliased = A.by_alias 3

module Apply (M : sig
  val by_functor : int -> int
end) =
struct
  let v = M.by_functor 4
end

module Applied = Apply (struct
  include U001_ok
end)

open U001_ok

let opened = by_open 2
