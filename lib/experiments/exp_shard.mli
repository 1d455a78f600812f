(** Lock-namespace sharding capstone (DESIGN.md §15): pairwise PW
    contention over many stripes pushed through 1/2/4/8 lock servers at
    512 clients, with at least one epoch-fenced live migration (forced
    rehoming + the queue-depth rebalancer) under every multi-server
    run.  Writes one row per server count to [BENCH_shard.json]
    (schema [ccpfs.shard/1]).  [CCPFS_SHARD_SERVERS] (comma-separated),
    [CCPFS_SHARD_CLIENTS] and [CCPFS_SHARD_STRIPES] override the sweep
    — the sanitized smoke in golden/dune runs servers "1,2" at 32
    clients over 8 stripes. *)

val run : scale:float -> unit
