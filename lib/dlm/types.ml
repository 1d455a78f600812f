open Ccpfs_util

type client_id = int
type resource_id = int

type request = {
  client : client_id;
  rid : resource_id;
  mode : Mode.t;
  ranges : Interval.t list;
}

type grant = {
  lock_id : int;
  rid : resource_id;
  client : client_id;
  mode : Mode.t;
  ranges : Interval.t list;
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

let ranges_hull = function
  | [] -> invalid_arg "Types.ranges_hull: empty range list"
  | r :: rest -> List.fold_left Interval.hull r rest

let normalize_ranges ranges =
  let sorted = List.sort Interval.compare ranges in
  let rec merge = function
    | a :: b :: rest when Interval.touches a b ->
        merge (Interval.hull a b :: rest)
    | a :: rest -> a :: merge rest
    | [] -> []
  in
  merge sorted

(* The merge scan is only correct when each list is sorted by offset with
   non-overlapping entries — the shape every server-side range list has.
   It used to *assume* that shape: handed an unsorted list (a raw request
   off the wire, a hand-built test case) it silently answered false on
   genuinely overlapping ranges.  Inputs are now checked in O(n) and
   normalized when they break the precondition, so the answer is right
   for every input and the well-formed fast path costs one cheap scan. *)
let rec sorted_disjoint : Interval.t list -> bool = function
  | [] | [ _ ] -> true
  | (x : Interval.t) :: ((y :: _) as rest) ->
      x.hi <= y.lo && sorted_disjoint rest

let rec overlap_scan a b =
  match (a, b) with
  | [], _ | _, [] -> false
  | (x : Interval.t) :: xs, (y : Interval.t) :: ys ->
      if Interval.overlaps x y then true
      else if x.hi <= y.lo then overlap_scan xs b
      else overlap_scan a ys

let ranges_overlap a b =
  let canon l = if sorted_disjoint l then l else normalize_ranges l in
  overlap_scan (canon a) (canon b)

let pp_ranges ppf ranges =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
    Interval.pp ppf ranges

let pp_request ppf (r : request) =
  Format.fprintf ppf "req{c%d r%d %a %a}" r.client r.rid Mode.pp r.mode
    pp_ranges r.ranges

let pp_grant ppf g =
  Format.fprintf ppf "grant{#%d c%d r%d %a %a sn%d %a}" g.lock_id g.client
    g.rid Mode.pp g.mode pp_ranges g.ranges g.sn Lcm.pp_state g.state
