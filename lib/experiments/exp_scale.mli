(** Cluster-scale contention: Fig. 18-style shared-file PW contention
    at 128/256/512 simulated clients, writing one row per point of
    simulated cost and engine event count to [BENCH_scale.json] (schema
    [ccpfs.scale/1]).  [CCPFS_SCALE_CLIENTS] (comma-separated) overrides
    the client counts — CI's scale-smoke job runs "128". *)

val run : scale:float -> unit
