type attrs = { fid : int; layout : Layout.t; size : int }

type req =
  | Open of { path : string; create : bool; layout : Layout.t }
  | Stat of { fid : int }
  | Update_size of { fid : int; size : int }
  | Set_size of { fid : int; size : int }

type resp = Attrs of attrs | Ok | Enoent

type entry = { e_fid : int; e_layout : Layout.t; mutable e_size : int }

type t = {
  by_path : (string, entry) Hashtbl.t;
  by_fid : (int, entry) Hashtbl.t;
  mutable next_fid : int;
  mutable ep : (req, resp) Netsim.Rpc.endpoint option;
}

let handle t req ~reply =
  match req with
  | Open { path; create; layout } -> (
      match Hashtbl.find_opt t.by_path path with
      | Some e ->
          reply (Attrs { fid = e.e_fid; layout = e.e_layout; size = e.e_size })
      | None ->
          if not create then reply Enoent
          else begin
            t.next_fid <- t.next_fid + 1;
            let e = { e_fid = t.next_fid; e_layout = layout; e_size = 0 } in
            Hashtbl.add t.by_path path e;
            Hashtbl.add t.by_fid e.e_fid e;
            reply (Attrs { fid = e.e_fid; layout; size = 0 })
          end)
  | Stat { fid } -> (
      match Hashtbl.find_opt t.by_fid fid with
      | Some e ->
          reply (Attrs { fid = e.e_fid; layout = e.e_layout; size = e.e_size })
      | None -> reply Enoent)
  | Update_size { fid; size } -> (
      match Hashtbl.find_opt t.by_fid fid with
      | Some e ->
          if size > e.e_size then e.e_size <- size;
          reply Ok
      | None -> reply Enoent)
  | Set_size { fid; size } -> (
      match Hashtbl.find_opt t.by_fid fid with
      | Some e ->
          e.e_size <- size;
          reply Ok
      | None -> reply Enoent)

let create eng params ~node =
  let t =
    { by_path = Hashtbl.create 16; by_fid = Hashtbl.create 16; next_fid = 0;
      ep = None }
  in
  t.ep <-
    Some
      (Netsim.Rpc.endpoint eng params ~node ~name:"meta"
         ~handler:(fun req ~reply -> handle t req ~reply));
  t

let endpoint t = Option.get t.ep
let resp_to_string = function
  | Attrs a -> Printf.sprintf "Attrs{fid=%d,size=%d}" a.fid a.size
  | Ok -> "Ok"
  | Enoent -> "Enoent"
