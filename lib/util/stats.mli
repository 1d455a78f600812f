(** Streaming sample accumulator used by the experiment harness for
    latency breakdowns and bandwidth series. *)

type t

val create : unit -> t
val add : t -> float -> unit
val count : t -> int
val mean : t -> float
(** 0. on an empty accumulator. *)

val min : t -> float
val max : t -> float
val percentile : t -> float -> float
(** [percentile t p]: the nearest-rank percentile — the smallest sample
    whose rank [i] (1-based, ascending) satisfies [i/n >= p/100].
    [p] is clamped to [0, 100]; [p = 0] gives the minimum, [p = 100]
    the maximum, and 0. is returned on an empty accumulator. *)
