(** Canonical scenarios for the schedule explorer.

    Three clients contend for overlapping NBW locks on one resource
    (flush in flight, revocations, early grants — the §III-A machinery).
    A full symmetric start makes the tie tree astronomically large, so
    coverage is factored: {!arrival_orders} enumerates every order in
    which the three requests can be issued, and for each order
    {!Explore.run} exhausts every same-timestamp tie the protocol
    produces downstream (callback races, ack/release ties).  Invariants
    are asserted after every schedule. *)

val explore_contention : ?max_schedules:int -> unit -> Explore.result
(** Explore every arrival order exhaustively; [schedules] accumulates
    across orders, [complete] says all six trees were exhausted. *)
