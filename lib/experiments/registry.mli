(** Index of every reproduced table and figure.

    Each experiment regenerates the rows/series of one paper artefact.
    [default_scale] shrinks the paper's data volumes to laptop-friendly
    sizes (1.0 = the full published configuration); shapes are preserved
    because steady-state bandwidths do not depend on total bytes once
    caches reach their thresholds (see EXPERIMENTS.md). *)

type t = {
  id : string;  (** "fig20", "table3", ... *)
  title : string;
  paper_claim : string;  (** the headline number(s) being reproduced *)
  default_scale : float;
  run : scale:float -> unit;
}

val all : t list
(** In paper order. *)

val find : string -> t option

val run_one : ?scale:float -> t -> unit
(** Runs and prints, with a header naming the experiment and scale. *)

val run_all : ?scale:float -> unit -> unit
(** Every experiment at its default (or overridden) scale. *)

val write_results : path:string -> int
(** Write every result row the harness accumulated since the last write
    to [path] as a [BENCH_experiments.json] document (see EXPERIMENTS.md
    "Machine-readable results"); returns the row count and clears the
    accumulator. *)
