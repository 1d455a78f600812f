(* A justified U001 suppression on the val itself: must produce a
   suppression record and no finding. *)

val kept : unit -> int
[@@lint.allow
  "U001 fixture: an entry point kept for a caller outside the scanned \
   trees"]
