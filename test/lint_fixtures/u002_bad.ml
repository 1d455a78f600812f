type t = { read : int; unread : int }
type v = Cell of { seen : int; unseen : int }
