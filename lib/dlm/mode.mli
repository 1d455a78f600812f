(** SeqDLM lock modes (paper §III-C).

    The traditional read lock is kept as PR; the traditional write lock is
    refined into three write modes.  Restrictiveness (Fig. 9) orders them
    NBW < BW < PW, with PR on a separate branch joining the writes at PW:
    a more restrictive mode can stand in for a less restrictive one, and
    automatic lock conversion moves along these edges. *)

type t =
  | PR  (** Protective Read — shared read, the traditional read lock. *)
  | NBW
      (** Non-Blocking Write — write-only, no blocking feature; eligible
          for early grant.  The high-contention fast path. *)
  | BW
      (** Blocking Write — write-only but keeps the blocking feature;
          required for atomic writes across multiple resources
          (§III-B1). *)
  | PW
      (** Protective Write — read+write, the traditional write lock;
          required for atomic read-update operations (§III-B2). *)

val is_write : t -> bool
val can_read : t -> bool
(** PR and PW holders may read the resource. *)

val can_write : t -> bool
(** NBW, BW and PW holders may write it. *)

val severity : t -> int
(** Position in Fig. 9's restrictiveness order; PW is the maximum. *)

val join : t -> t -> t
(** Least restrictive mode subsuming both — the target of lock upgrading
    (Fig. 9's upward edges): [join PR NBW = PW], [join NBW BW = BW], etc. *)

val subsumes : cached:t -> wanted:t -> bool
(** Whether a cached lock of mode [cached] can serve an operation that
    selected [wanted] (a PW serves anything; a BW serves BW and NBW
    writes; PR serves reads only). *)

val equal : t -> t -> bool
val to_string : t -> string
val pp : Format.formatter -> t -> unit
