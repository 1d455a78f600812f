(** Greedy case minimizer.

    Given a failing case, repeatedly tries simplifications, re-running
    the case after each and keeping any that still fails (with {e any}
    failure: a simpler reproducer for another symptom of the same run is
    still a better reproducer), to a fixpoint or until the re-run budget
    is spent. *)

val candidates : Case.t -> Case.t list
(** One round of simplifications.  For each segment kind, newest
    first: drop all of that kind, then each one, then each one's
    {!Segment.smaller} versions.  Then the shape: drop a client, no
    replication, no message faults, one stripe on one server, no
    nondeterminism, relaxed cache limits. *)

val minimize :
  ?inject:Exec.inject -> ?budget:int -> Case.t -> string ->
  Case.t * string * int
(** [minimize case reason] is [(smallest, its_reason, reruns)].
    [budget] (default 150) bounds the number of re-executions. *)
