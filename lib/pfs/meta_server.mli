(** The namespace service (the external NFS of the paper's deployment).

    ccPFS creates/opens files here, takes the returned fid (the NFS inode
    number in the artifact) to derive stripe/lock-resource ids, and keeps
    the authoritative file size here for append and stat. *)

type t

type attrs = { fid : int; layout : Layout.t; size : int }

type req =
  | Open of { path : string; create : bool; layout : Layout.t }
  | Stat of { fid : int }
  | Update_size of { fid : int; size : int }  (** grows only *)
  | Set_size of { fid : int; size : int }  (** truncate *)

type resp = Attrs of attrs | Ok | Enoent

val create : Dessim.Engine.t -> Netsim.Params.t -> node:Netsim.Node.t -> t
val endpoint : t -> (req, resp) Netsim.Rpc.endpoint
val resp_to_string : resp -> string
(** Short rendering for diagnostics: ["Attrs{fid=3,size=8192}"], ["Ok"],
    ["Enoent"]. *)
