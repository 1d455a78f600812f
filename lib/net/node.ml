open Dessim

type t = {
  name : string;
  rx : Resource.t;
  ctl_rx : Resource.t;
  ops : Resource.t;
  mem : Resource.t;
  disk : Resource.t option;
  mutable disk_bytes : int;
  mutable rpcs : int;
  mutable bytes_in : int;
}

let create eng (p : Params.t) ~name ?(with_disk = false) () =
  {
    name;
    rx = Resource.create eng ~metric:"net.rx" ~rate:p.b_net ();
    ctl_rx = Resource.create eng ~metric:"net.ctl" ~rate:p.b_net ();
    ops = Resource.create eng ~metric:"srv.ops" ~rate:p.server_ops ();
    mem = Resource.create eng ~metric:"mem" ~rate:p.b_mem ();
    disk =
      (if with_disk then
         Some (Resource.create eng ~metric:"disk" ~rate:p.b_disk ())
       else None);
    disk_bytes = 0;
    rpcs = 0;
    bytes_in = 0;
  }

let name t = t.name
let rx t = t.rx
let ctl_rx t = t.ctl_rx
let ops t = t.ops
let mem t = t.mem

let disk t =
  match t.disk with
  | Some d -> d
  | None -> invalid_arg (t.name ^ ": node has no disk")

let disk_write t bytes =
  t.disk_bytes <- t.disk_bytes + bytes;
  Resource.reserve (disk t) (float_of_int bytes)

let disk_bytes_written t = t.disk_bytes
let rpc_count t = t.rpcs
let incr_rpc t = t.rpcs <- t.rpcs + 1
let net_bytes_in t = t.bytes_in
let add_net_bytes t n = t.bytes_in <- t.bytes_in + n
