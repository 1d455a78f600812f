type t = { read : int; unread : int }
