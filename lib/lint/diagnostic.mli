(** Lint diagnostics: findings (build-failing) and suppressions (sites
    explicitly allowed by a justified [\[@lint.allow\]] attribute). *)

type finding = {
  rule : string;  (** rule id, e.g. ["D001"] *)
  file : string;  (** source path as recorded in the cmt (build-relative) *)
  line : int;  (** 1-based *)
  col : int;  (** 0-based, matching compiler messages *)
  message : string;
}

type suppression = {
  s_rule : string;
  s_file : string;
  s_line : int;
  s_justification : string;  (** mandatory free text carried by the attribute *)
}

type report = {
  findings : finding list;  (** sorted by (file, line, col, rule, message) *)
  suppressions : suppression list;  (** sorted likewise *)
  files_scanned : int;
}

val sorted_report :
  files_scanned:int ->
  findings:finding list ->
  suppressions:suppression list ->
  report
(** Deduplicate and sort, so reports are deterministic and comparable. *)

val pp_finding : Format.formatter -> finding -> unit
val pp_suppression : Format.formatter -> suppression -> unit
