(** Plain-text table rendering for the benchmark harness: each experiment
    prints the same rows/series as the corresponding paper table or
    figure. *)

type t

val create : title:string -> columns:string list -> t
val add_row : t -> string list -> unit
(** Rows shorter than the header are right-padded with empty cells. *)

val add_note : t -> string -> unit
(** Free-form line printed under the table (used for the paper-vs-measured
    commentary). *)

val render : t -> string

val print : t -> unit
(** [render] followed by a newline on stdout.  The machine-readable copy
    of a result is the experiment's JSON rows, not the table. *)
