type t = { kept : int }
