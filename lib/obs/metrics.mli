(** Counters, gauges and log-bucketed histograms over simulated time.

    One registry per simulation engine.  Handles are resolved by name
    once, at instrumentation-site setup (endpoint creation, node
    creation, …); the per-observation cost is a flag check plus an array
    or field update, and nothing at all while the registry is disabled —
    registries start disabled and are switched on per run by the
    harness.  Two lookups of the same name return the same instrument. *)

type t

val create : unit -> t
(** A fresh, disabled registry. *)

val enable : t -> unit
val is_enabled : t -> bool

type counter

val counter : t -> string -> counter
val add : counter -> int -> unit
val incr : counter -> unit
val counter_value : counter -> int

type gauge

val gauge : t -> string -> gauge

val set_gauge : gauge -> float -> unit
(** Records the latest value and tracks the maximum seen. *)

val set_gauge_int : gauge -> int -> unit
(** [set_gauge] of an integer value, converted only while the registry
    is enabled: a hot-path caller allocates no boxed float for a
    disabled registry. *)

val gauge_value : gauge -> float

type histogram

val histogram : t -> string -> histogram

val observe : histogram -> float -> unit
(** Values land in power-of-two buckets: bucket upper bounds are
    [2^(i-64)], so the span covers ~5.4e-20 .. 9.2e18 with one bucket per
    doubling — ns-to-hours latencies and byte-to-TiB sizes both fit.
    Non-positive values land in the lowest bucket. *)

val observe_int : histogram -> int -> unit
(** [observe] of an integer value, converted only while the registry is
    enabled, as {!set_gauge_int}. *)

val hist_count : histogram -> int
val hist_sum : histogram -> float

val hist_buckets : histogram -> (float * int) list
(** Non-empty buckets as [(upper_bound, count)], ascending. *)

val hist_quantile : histogram -> float -> float
(** [hist_quantile h p]: upper bound of the bucket holding the
    nearest-rank [p]-th percentile (the smallest bucket whose cumulative
    count reaches rank [ceil (p/100 * n)]).  Resolution is one
    power-of-two bucket — a tail estimate (p99/p999) for dashboards, not
    an exact order statistic; use {!Ccpfs_util.Stats.percentile} when
    the samples themselves are retained.  [p] is clamped to [0, 100];
    0. on an empty histogram. *)

val to_json : t -> Json.t
(** Snapshot: [{"counters": {...}, "gauges": {...}, "histograms": {...}}]
    with every instrument sorted by name.  Histograms carry count, sum,
    min, max and the non-empty buckets. *)
