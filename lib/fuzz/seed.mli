(** Base-seed plumbing shared by the fuzzer and every randomized test.

    All stochastic choices in the test suite derive from one base seed so
    a CI failure is replayable locally: set the [CCPFS_SEED] environment
    variable (or pass [ccpfs_run fuzz --seed]) to the seed a failure
    message printed. *)

val base : unit -> int
(** [CCPFS_SEED] if set, [0x5eed] otherwise.
    @raise Invalid_argument if the variable is set but not an integer
    [>= 0]. *)

val label : string -> string
(** [label name] is ["name [CCPFS_SEED=<base>]"] — test-case names carry
    the active seed, so every failure message prints it. *)

val rand_state : unit -> Random.State.t
(** A [Random.State.t] derived from {!base}, for QCheck's
    [to_alcotest ~rand]. *)
