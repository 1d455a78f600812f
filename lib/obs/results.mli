(** The machine-readable results accumulator behind [BENCH_*.json].

    Experiment harnesses append one row per measured run; the CLI / bench
    drivers write the accumulated rows out once at the end.  Rows are
    arbitrary JSON objects — the schemas actually emitted are documented
    in EXPERIMENTS.md ("Machine-readable results"). *)

val add : Json.t -> unit
(** Append a row (callers pass a [Json.Obj]). *)

val count : unit -> int
val rows : unit -> Json.t list
val clear : unit -> unit

val document : schema:string -> Json.t
(** [{"schema": schema, "generated_by": ..., "results": [rows]}]. *)

val write : schema:string -> path:string -> unit -> int
(** Write {!document} to [path], replacing any file there, and clear
    the accumulator; returns the number of rows written. *)
