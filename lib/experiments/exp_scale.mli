(** Cluster-scale contention: Fig. 18-style shared-file PW contention
    at 128/256/512 simulated clients, writing one row per point of
    simulated cost and engine event count to [BENCH_scale.json] (schema
    [ccpfs.scale/1]).  [CCPFS_SCALE_CLIENTS] (comma-separated) overrides
    the client counts — the committed document runs "128,256,512,4096",
    the sanitized smoke in golden/dune "128". *)

val run : scale:float -> unit
