(** Deterministic random streams.  Every stochastic choice in the
    simulator draws from an explicitly-seeded state so whole-cluster runs
    are reproducible event-for-event. *)

type t

val create : seed:int -> t
val split : t -> t
(** An independent stream derived from this one (stable: the n-th split of
    a given seed is always the same stream). *)

val int : t -> int -> int
(** Uniform in [0, bound). *)

val float : t -> float -> float
val bool : t -> bool

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val state_of_ints : int array -> Random.State.t
(** An explicitly seeded raw [Random.State.t], for APIs that demand one
    (QCheck's [~rand]).  This module is the only one allowed to touch
    [Stdlib.Random] (lint rule D002); everything else derives its
    randomness from here or {!Dessim.Engine.random_float}. *)
