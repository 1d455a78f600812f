(** Hardware and transport parameters of a simulated cluster.

    These are the quantities the paper's cost model (§II-C, Table I) is
    built from.  {!default} reflects the evaluation testbed (§V-A):
    CaRT on verbs at ~213 kOPS per server, 100 Gbps HDR links, 3.2 TB
    NVMe SSDs; {!table1} reflects the idealised Table I numbers used for
    the analytical bottleneck argument. *)

type t = {
  rtt : float;  (** network round-trip time, seconds *)
  b_net : float;  (** link bandwidth, bytes/second *)
  server_ops : float;  (** RPC operations/second one server sustains *)
  b_disk : float;  (** storage-device bandwidth, bytes/second *)
  b_mem : float;  (** client-cache (memory) bandwidth, bytes/second *)
  ctl_msg_bytes : int;  (** size of lock-protocol control messages *)
  bulk_threshold : int;
      (** messages larger than this travel on the node's bulk data pipe;
          smaller ones use the control pipe.  Models packet-interleaving
          NICs / CaRT's separation of small RPCs from verbs bulk data: a
          256-byte lock message does not wait behind a full 1 MiB flush
          transfer. *)
  client_io_overhead : float;
      (** fixed client-side seconds per IO operation (syscall, page
          bookkeeping, pool allocation).  ~25 µs for ccPFS, which
          pre-registers an RDMA memory pool (§IV); larger for the
          original-Lustre client path of Fig. 20/24. *)
}

val default : t
(** Evaluation-testbed parameters. *)

val table1 : t
(** Table I parameters (idealised IB + NVMe) for the analytic model. *)

val b_flush : t -> float
(** Eq. (2): the data-flushing bandwidth B_net·B_disk/(B_net+B_disk). *)
