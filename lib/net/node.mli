(** A simulated machine: one NIC ingress pipe, one RPC service processor
    and, for data servers, one storage device.  The client-cache memory
    bandwidth also lives here so writes absorbed by the cache cost
    [size / b_mem] of the owning node's memory pipe (what bounds the
    paper's N-N curve in Fig. 4). *)

type t

val create : Dessim.Engine.t -> Params.t -> name:string -> ?with_disk:bool ->
  unit -> t

val name : t -> string
val rx : t -> Dessim.Resource.t
(** Inbound bulk-data pipe ([b_net]). *)

val ctl_rx : t -> Dessim.Resource.t
(** Inbound control-message pipe: small RPCs are interleaved with bulk
    transfers by the NIC rather than queued behind them, so they ride a
    separate pipe of the same rate. *)

val ops : t -> Dessim.Resource.t
(** RPC service processor ([server_ops]). *)

val mem : t -> Dessim.Resource.t
(** Memory/cache pipe ([b_mem]). *)

val disk : t -> Dessim.Resource.t
(** @raise Invalid_argument if the node was created without a disk. *)

val disk_write : t -> int -> unit
(** Occupy the device for [bytes / b_disk] seconds (FIFO) and account the
    bytes. *)

val disk_bytes_written : t -> int
val rpc_count : t -> int
val incr_rpc : t -> unit
val net_bytes_in : t -> int
val add_net_bytes : t -> int -> unit
