open Ccpfs_util

type client_id = int
type resource_id = int

type lock = {
  rid : resource_id;
  lock_id : int;
  client : client_id;
  mode : Mode.t;
  ranges : Ranges.t;
  sn : int;
  state : Lcm.lock_state;
}

type request = {
  client : client_id;
  rid : resource_id;
  mode : Mode.t;
  ranges : Ranges.t;
}

type grant = {
  lock_id : int;
  rid : resource_id;
  client : client_id;
  mode : Mode.t;
  ranges : Ranges.t;
  sn : int;
  state : Lcm.lock_state;
  replaces : int list;
}

(* The lock endpoint's reply: a grant, or a bounce from a server that no
   longer owns the resource's lock namespace (DESIGN.md §15).  The epoch
   is the shard map's version as of the bounce, so the client knows how
   fresh a map it must fetch before retrying. *)
type lock_reply = Granted of grant | Stale_owner of { epoch : int }

type server_msg = Revoke of { rid : resource_id; lock_id : int }

type ctl_msg =
  | Revoke_ack of { rid : resource_id; lock_id : int }
  | Downgrade of { rid : resource_id; lock_id : int; mode : Mode.t }
  | Release of { rid : resource_id; lock_id : int }

let pp_request ppf (r : request) =
  Format.fprintf ppf "req{c%d r%d %a %a}" r.client r.rid Mode.pp r.mode
    Ranges.pp r.ranges

let pp_grant ppf g =
  Format.fprintf ppf "grant{#%d c%d r%d %a %a sn%d %a}" g.lock_id g.client
    g.rid Mode.pp g.mode Ranges.pp g.ranges g.sn Lcm.pp_state g.state
