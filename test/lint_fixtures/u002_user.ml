(* The sibling unit that writes u002_bad's fields, and reads all but
   two, and reads u002_ok's fields by access and through an alias.
   Writing a field (building a record) is not a read. *)

let bad = { U002_bad.read = 1; unread = 2 }
let read = bad.U002_bad.read
let cell = U002_bad.Cell { seen = 1; unseen = 2 }
let seen = match cell with U002_bad.Cell { seen; _ } -> seen
let ok = { U002_ok.by_access = 1; by_alias = 2; by_pattern = 3 }
let by_access = ok.U002_ok.by_access

module A = U002_ok

let by_alias (x : A.t) = x.A.by_alias
let by_pattern = U002_ok.pattern ok
let by_cstr_access = function U002_ok.Box b -> b.by_cstr_access
let by_cstr_pattern =
  U002_ok.unbox (U002_ok.Box { by_cstr_pattern = 1; by_cstr_access = 2 })
