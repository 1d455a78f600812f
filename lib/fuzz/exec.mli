(** The case executor: run one {!Case.t} under every oracle.

    A simulated case builds a fresh cluster (extent logs on, so crash
    phases can recover), seeds the case's legal nondeterminism (event
    jitter, random tie-breaking) from the case seed, attaches the
    {!Check.Sanitize} invariant layer unconditionally, journals every
    semantic write into a {!Shadow} file, installs the case's segments
    in list order (spawning migrations and partition windows, running
    phases and load to quiescence, asserting after every crash that the
    recovered SN floor stays above everything recovered), fsyncs, and
    compares the device contents byte-for-byte against the shadow.  The whole scenario is executed {e twice} under
    {!Check.Determinism.check}, so a fingerprint divergence between two
    identical runs is itself a failure.

    An analytic case runs N fully-conflicting PW writers under the basic
    DLM and checks the simulated aggregate bandwidth against Eq. (1)
    within {!tolerance}. *)

(** Deliberate bugs the fuzzer can plant to prove its oracles bite
    (regression tests, [ccpfs_run fuzz --inject]). *)
type inject =
  | Sn_reuse  (** lock servers reissue an old SN every 3rd write grant *)
  | Drop_block  (** data servers silently drop every 5th flushed block *)

val inject_of_string : string -> inject option
val inject_to_string : inject -> string

type outcome = {
  fingerprint : int64;  (** common FNV-1a fingerprint of the double run *)
  ops : int;  (** client operations executed (one run) *)
  virtual_end : float;  (** simulated seconds at completion *)
  oracle : string;  (** which oracle vouched: ["shadow"] / ["analytic"] *)
}

val tolerance : float
(** Allowed relative error of the analytic differential check. *)

val run : ?inject:inject -> Case.t -> outcome
(** @raise Check.Violation.Violation on any invariant, determinism,
    recovery-floor or analytic-model failure;
    @raise Shadow.Divergence on a shadow-file mismatch;
    @raise Check.Deadlock.Deadlock_found on an engine stall. *)

val catch : ?inject:inject -> Case.t -> (outcome, string) result
(** {!run} with every failure rendered as a printable reason (the
    shrinker's predicate). *)
