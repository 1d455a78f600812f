type t = {
  id : string;
  title : string;
  paper_claim : string;
  default_scale : float;
  run : scale:float -> unit;
}

let all =
  [
    {
      id = "model";
      title = "§II-C analytical model (Eq. 1, Eq. 2, Table I)";
      paper_claim = "term ③ (flushing) dominates ① and ② by orders of magnitude";
      default_scale = 1.0;
      run = Exp_model.run;
    };
    {
      id = "fig04";
      title = "Fig. 4: IO-pattern performance gap";
      paper_claim = "N-N/segmented ride the cache; N-1 strided collapses";
      default_scale = 0.02;
      run = Exp_fig04.run;
    };
    {
      id = "fig05";
      title = "Fig. 5: reducing data-flushing time";
      paper_claim = "less flushing -> more bandwidth; revocation next bottleneck";
      default_scale = 0.02;
      run = Exp_fig05.run;
    };
    {
      id = "fig17";
      title = "Fig. 17: sequential-conflict time breakdown";
      paper_claim = "PW: 67.9-69.3% in conflict resolution, mostly flushing";
      default_scale = 0.05;
      run = Exp_fig17.run;
    };
    {
      id = "fig18";
      title = "Fig. 18: early grant + early revocation throughput";
      paper_claim = "NBW+ER up to 40.2x over PW; ER does not help PW";
      default_scale = 0.05;
      run = Exp_fig18.run;
    };
    {
      id = "fig19";
      title = "Fig. 19: automatic lock conversion";
      paper_claim = "upgrading matches PW; downgrading 2.48x/9.40x over PW";
      default_scale = 0.2;
      run = Exp_fig19.run;
    };
    {
      id = "table3";
      title = "Table III: N-1 segmented, low contention";
      paper_claim = "SeqDLM within a few % of DLM-basic/DLM-Lustre";
      default_scale = 0.02;
      run = Exp_table3.run;
    };
    {
      id = "fig20";
      title = "Fig. 20: N-1 strided, 1 stripe";
      paper_claim = "up to 18.1x over traditional DLMs; PIO ~5% of total";
      default_scale = 0.02;
      run = Exp_fig20.run;
    };
    {
      id = "fig21";
      title = "Fig. 21/22: N-1 strided, 4 & 8 stripes, 96 clients";
      paper_claim = "3.6-10.3x (4 stripes), 2.0-6.2x (8 stripes) over DLM-Lustre";
      default_scale = 0.1;
      run = Exp_fig21.run;
    };
    {
      id = "fig23";
      title = "Fig. 23: Tile-IO vs DLM-datatype";
      paper_claim = "51.0x (1 stripe) to 4.1x (16 stripes)";
      default_scale = 0.03;
      run = Exp_fig23.run;
    };
    {
      id = "fig24";
      title = "Fig. 24/25: VPIC-IO through IO forwarding";
      paper_claim = "6.2x/1.5x (256KiB) and 34.8x/8.8x (1MiB) over DLM-Lustre";
      default_scale = 0.1;
      run = Exp_fig24.run;
    };
    {
      id = "scale";
      title = "Scale: shared-file PW convoy at 128-512 clients";
      paper_claim =
        "lock-server queueing drives Figs. 17-20; a whole-file PW convoy \
         of N clients queues N-1 waiters, so write latency grows linearly \
         with N";
      default_scale = 1.0;
      run = Exp_scale.run;
    };
    {
      id = "shard";
      title = "Shard: lock-namespace sharding, 1-8 servers at 512 clients";
      paper_claim =
        "distributing the DLM lifts aggregate lock throughput (§II-B); \
         epoch-fenced migration keeps Table II semantics while resources \
         rehome under live traffic";
      default_scale = 1.0;
      run = Exp_shard.run;
    };
    {
      id = "load";
      title = "Load: open-loop offered-rate sweep to the latency knee";
      paper_claim =
        "closed-loop clients self-throttle at saturation; only open-loop \
         arrivals expose the offered-load vs p99 knee the paper's \
         sustained-traffic claims rest on";
      default_scale = 1.0;
      run = Exp_load.run;
    };
    {
      id = "repl";
      title = "Repl: replicated lock-server recovery, gather vs replay";
      paper_claim =
        "§IV-C2 rebuilds the lock table by asking every client; shipping \
         the grant log to backups (DESIGN.md §16) shrinks the \
         unavailability window to detection + election + replay, \
         independent of the client count";
      default_scale = 1.0;
      run = Exp_repl.run;
    };
    {
      id = "safety";
      title = "§V-B1: data safety";
      paper_claim = "ior-hard readback and overlapping-write checksums always correct";
      default_scale = 0.1;
      run = Exp_safety.run;
    };
  ]

let find id = List.find_opt (fun e -> e.id = id) all

let run_one ?scale e =
  let scale = Option.value scale ~default:e.default_scale in
  Printf.printf "\n### %s [%s, scale=%g]\n" e.title e.id scale;
  Printf.printf "### paper: %s\n\n" e.paper_claim;
  Obs.Hub.set_run_info ~experiment:e.id ~scale;
  e.run ~scale

let run_all ?scale () = List.iter (fun e -> run_one ?scale e) all

let results_schema = "ccpfs.experiments/1"

let write_results ~path = Obs.Results.write ~schema:results_schema ~path ()
