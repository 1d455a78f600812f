(** The invariants every committed result document must satisfy, one
    entry per schema ([ccpfs.experiments/1], [ccpfs.scale/1],
    [ccpfs.load/1], [ccpfs.shard/1], [ccpfs.repl/1], and the
    micro-benchmark rows' [ccpfs.micro/1]) plus Chrome traces
    (balanced B/E spans).  Row checks hold for each row on its own;
    cross-row checks hold for the document (a unique load knee, shard
    capacity rising with the server count, replay beating gather).
    [ccpfs_run validate FILE...] is the command-line front end. *)

type pins = {
  rows : int option;  (** exact row count *)
  fields : (string * Obs.Json.t) list;  (** every row has these values *)
  events : string list;  (** event names a trace must contain *)
}
(** Facts of one particular run configuration (CI's reduced settings),
    checked on top of the schema invariants.  Row pins apply to result
    documents, [events] to traces. *)

val no_pins : pins

val document : ?pins:pins -> Obs.Json.t -> (string, string list) result
(** A one-line summary of a valid document, or every violated
    invariant. *)

val files : ?pins:pins -> string list -> (string list, string list) result
(** {!document} on each file ("FILE: summary" lines).  Also fails when a
    pin matched no document of its kind, so a pin can never pass
    silently. *)
