(* A justified U002 suppression on the field itself: must produce a
   suppression record and no finding. *)

type t = {
  kept : int;
      [@lint.allow
        "U002 fixture: a field kept for a reader outside the scanned trees"]
}
