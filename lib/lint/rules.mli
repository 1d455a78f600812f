(** The rule catalogue.  Each rule is grounded in a bug class this repo
    has actually shipped (DESIGN.md section 12 cross-references the PRs);
    the L-rules police the suppression mechanism itself and cannot be
    suppressed. *)

type t = {
  id : string;
  title : string;
  rationale : string;  (** motivating shipped bug + the prescribed fix *)
}

val known : string -> bool
val find : string -> t option
