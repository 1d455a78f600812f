(** Deterministic-seeded arrival processes for open-loop load generation.

    A stream of inter-arrival gaps drawn from an explicitly seeded
    {!Ccpfs_util.Det_random} state: two streams created with the same
    seed and process produce bit-identical gap sequences, so whole load
    runs fingerprint deterministically (the repo's determinism
    double-run applies to the benchmark harness too).

    Three processes, in increasing burstiness:
    - {e constant}: gaps are exactly [1/rate] — a paced closed-grid
      baseline (lockstep by construction; prefer Poisson when latency
      percentiles matter).
    - {e Poisson}: i.i.d. exponential gaps with parameter [rate] — the
      memoryless open-loop standard; bursts of back-to-back arrivals
      occur at any utilisation, which is exactly what closed-loop
      clients can never generate.
    - {e MMPP(2)}: a Markov-modulated Poisson process with two states;
      the process dwells an exponential time (mean [dwell0]/[dwell1]) in
      each state and emits Poisson arrivals at that state's rate —
      heavy-tailed burstiness with a controlled long-run mean. *)

type process =
  | Constant of float  (** rate, requests/second *)
  | Poisson of float  (** rate, requests/second *)
  | Mmpp of { rate0 : float; rate1 : float; dwell0 : float; dwell1 : float }
      (** per-state Poisson rates (req/s) and mean state dwell times
          (seconds); all four must be positive *)

val mean_rate : process -> float
(** Long-run arrivals/second: the rate itself, or for MMPP the
    dwell-weighted average [(d0·r0 + d1·r1) / (d0 + d1)]. *)

val bursty : rate:float -> process
(** A canonical 2-state MMPP with long-run mean [rate]: a quiet state at
    [0.4·rate] and a bursty state at [1.6·rate], equal mean dwells of 20
    mean inter-arrival times each — bursty enough to expose queueing at
    moderate utilisation while keeping the offered load comparable to
    [Poisson rate]. *)

val of_string : rate:float -> string -> process option
(** ["constant"], ["poisson"] or ["mmpp"] (the {!bursty} shape), at the
    given mean rate. *)

val to_string : process -> string
(** The [of_string] name: ["constant"], ["poisson"] or ["mmpp"]. *)

type t

val create : seed:int -> process -> t
(** @raise Invalid_argument on a non-positive rate or dwell. *)

val next_gap : t -> float
(** The next inter-arrival gap, seconds (>= 0, finite).  Draw [n] gaps
    and the [k]-th arrival lands at the running sum of the first [k]. *)

val times : seed:int -> process -> n:int -> float array
(** The first [n] arrival times relative to the stream start (the
    prefix sums of [next_gap] on a fresh stream): what a load driver
    installs as its arrival schedule. *)

(** {1 MMPP introspection (statistical tests)} *)

val state : t -> int
(** Current modulation state (0 or 1; constant/Poisson always 0). *)

val state_time : t -> int -> float
(** Total virtual time the stream has spent in state [i] so far. *)

val state_visits : t -> int -> int
(** Completed-or-current dwell periods in state [i] (1 for state 0 and 0
    for state 1 on a fresh MMPP stream). *)
