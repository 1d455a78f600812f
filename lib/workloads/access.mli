(** Access streams: ordered (offset, length) sequences, the only thing a
    DLM observes of a workload. *)

type t = { off : int; len : int }

val interval : t -> Ccpfs_util.Interval.t

type pattern =
  | N_n  (** file per process (Fig. 2(a)) *)
  | N1_segmented  (** shared file, one contiguous segment each (Fig. 2(b)) *)
  | N1_strided  (** shared file, interleaved slots (Fig. 2(c)) *)

val total_length : t list -> int
