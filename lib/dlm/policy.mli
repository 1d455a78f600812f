(** Configuration of a DLM variant.

    The paper evaluates four lock managers inside ccPFS (§V-A); all four
    are the same server/client machinery under different policies:

    - {!seqdlm}: greedy range expansion, early grant (NBW/BW modes),
      early revocation, automatic lock conversion.
    - {!dlm_basic}: the general DLM of §II-A — greedy expansion, normal
      grant only (clients select PR/PW).
    - {!dlm_lustre}: like DLM-basic but expansion is capped at 32 MiB once
      the resource has more than 32 granted locks.
    - {!dlm_datatype}: non-contiguous (datatype) locking — exact
      multi-range locks, no expansion, normal grant.

    The variants Figs. 18 and 19 compare (early grant without early
    revocation, SeqDLM without conversion) are derived with the
    [without_*] helpers. *)

type expansion =
  | Greedy  (** expand the end to the largest compatible offset (→ EOF) *)
  | Capped of { max_expand : int; lock_threshold : int }
      (** greedy until the resource holds more than [lock_threshold]
          locks, then expand at most [max_expand] bytes past the request *)
  | No_expansion  (** datatype locking: grant exactly what was asked *)

type mode_selection =
  | Seq_modes  (** Fig. 10 rules: PR / NBW / BW / PW *)
  | Traditional_modes  (** reads → PR, all writes → PW *)

type t = {
  name : string;
  expansion : expansion;
  early_revocation : bool;
      (** piggyback revocation in the grant reply when a queued conflict
          exists and the range could not be expanded *)
  auto_convert : bool;  (** lock upgrading and downgrading (§III-D) *)
  datatype_requests : bool;
      (** clients send the exact non-contiguous range list *)
  selection : mode_selection;
      (** which write modes clients select; only [Seq_modes] selects
          NBW/BW, so it alone reaches the LCM's early-grant entries *)
  piggyback_release : bool;
      (** ride the final Release (and pending control messages) on the
          revocation flush instead of separate RPCs — SeqDLM's
          release-on-last-flush-block rule (§III-B). Baselines send each
          control message on its own. *)
}

val seqdlm : t
val dlm_basic : t
val dlm_lustre : t
val dlm_datatype : t

val without_early_revocation : t -> t
val without_conversion : t -> t

val select_write : t -> spans_resources:bool -> implicit_read:bool -> Mode.t
(** Fig. 10 for this policy's mode set: implicit reads (append, partial
    pages) → PW; multi-resource atomic writes → BW; otherwise NBW —
    collapsing to PW for traditional mode selection. *)

val all : t list
(** The four paper variants, for parameterised tests. *)
