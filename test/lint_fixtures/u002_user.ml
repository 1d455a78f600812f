(* The sibling unit that writes u002_bad's fields, and reads all but
   one, and reads u002_ok's fields by access and through an alias.
   Writing a field (building a record) is not a read. *)

let bad = { U002_bad.read = 1; unread = 2 }
let read = bad.U002_bad.read
let ok = { U002_ok.by_access = 1; by_alias = 2; by_pattern = 3 }
let by_access = ok.U002_ok.by_access

module A = U002_ok

let by_alias (x : A.t) = x.A.by_alias
let by_pattern = U002_ok.pattern ok
