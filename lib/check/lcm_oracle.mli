(** An independent transcription of the paper's Table II.

    The invariant checker must not trust [Seqdlm.Lcm] — a bug injected
    into the production compatibility matrix would then be invisible to
    the sanitizer.  This module hand-enumerates all 32 (req, granted,
    state) cells with no shared code, and the checker judges lock-server
    state against it. *)

open Seqdlm

val compatible : req:Mode.t -> granted:Mode.t -> state:Lcm.lock_state -> bool

val cross_check : unit -> unit
(** Compare [Lcm.compatible] against this table over every cell; raises
    {!Violation.Violation} on the first divergence. *)
