(** Diagnosable protocol violations.

    When a client receives a reply that the protocol says is impossible
    for the request it sent (a [Data] for a write flush, an [Ok] for an
    open), or an internal exchange invariant breaks (a grant handle
    missing for a stripe the client just locked), the failure is a
    protocol bug — the run must die with the endpoint, the request and
    the offending reply in the message, not with a bare
    [Assert_failure].  Chaos and fault-injection runs rely on this to
    turn crashes into diagnoses. *)

exception
  Protocol_error of { endpoint : string; request : string; got : string }

val fail : endpoint:string -> request:string -> got:string -> 'a
(** @raise Protocol_error always. *)
