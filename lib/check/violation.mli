(** The sanitizer's verdict type.

    Every checker in this library reports a broken invariant by raising
    {!Violation} with the invariant's name and a human-readable account of
    the offending state.  Deliberately not [Assert_failure]: a violation
    names what was violated, so a failing chaos run or schedule
    exploration prints a protocol-level diagnosis instead of a source
    location. *)

type t = { inv : string; detail : string }

exception Violation of t

val fail : inv:string -> ('a, Format.formatter, unit, 'b) format4 -> 'a
(** [fail ~inv fmt ...] raises {!Violation} with a formatted detail. *)

val to_string : t -> string
