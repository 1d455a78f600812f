open Ccpfs_util
open Dessim
open Seqdlm

type edge = { waiter : Lock_server.waiter_view; held : Types.lock }

type report = {
  edges : edge list;
  cycles : Types.client_id list list;
  blocked : Engine.blocked_proc list;
}

exception Deadlock_found of report

(* One edge per (queued request, granted lock) pair the server is
   actually blocking on — the same conflict test the scheduler uses, so
   the graph reflects what the DLM will wait for, not what Table II says
   it should. *)
let edges_of_server srv =
  List.concat_map
    (fun rid ->
      let granted = Lock_server.granted_locks srv rid in
      List.concat_map
        (fun (w : Lock_server.waiter_view) ->
          List.filter_map
            (fun (g : Types.lock) ->
              if
                g.client <> w.q_client
                && Ranges.overlaps w.q_ranges g.ranges
                && not
                     (Lcm.compatible ~req:w.q_eff_mode ~granted:g.mode
                        ~state:g.state)
              then Some { waiter = w; held = g }
              else None)
            granted)
        (Lock_server.waiting_view srv rid))
    (Lock_server.resource_ids srv)

(* Rotate a cycle so its smallest client comes first — cycles found from
   different DFS roots then compare equal. *)
let canonical cycle =
  match cycle with
  | [] -> []
  | _ ->
      let n = List.length cycle in
      let arr = Array.of_list cycle in
      let start = ref 0 in
      Array.iteri (fun i c -> if c < arr.(!start) then start := i) arr;
      List.init n (fun i -> arr.((!start + i) mod n))

let find_cycles edges =
  let adj : Types.client_id list Int_tbl.t = Int_tbl.create 16 in
  List.iter
    (fun e ->
      let w = e.waiter.q_client and h = e.held.client in
      let cur = Option.value ~default:[] (Int_tbl.find_opt adj w) in
      if not (List.mem h cur) then Int_tbl.replace adj w (h :: cur))
    edges;
  let cycles = ref [] in
  let visited : unit Int_tbl.t = Int_tbl.create 16 in
  let rec dfs path c =
    match List.find_index (Int.equal c) path with
    | Some i ->
        (* path is most-recent-first; the first i+1 entries close the
           loop back to [c]. *)
        let cycle = List.rev (List.filteri (fun j _ -> j <= i) path) in
        let cycle = canonical cycle in
        if not (List.mem cycle !cycles) then cycles := cycle :: !cycles
    | None ->
        if not (Int_tbl.mem visited c) then begin
          Int_tbl.add visited c ();
          List.iter
            (dfs (c :: path))
            (Option.value ~default:[] (Int_tbl.find_opt adj c))
        end
  in
  (* The DFS shares [visited] across roots, so which cycles get reported
     (and in what orientation) depends on root order: start from sorted
     client ids, not raw table order, or two runs of the same scenario
     can disagree on the cycle list. *)
  List.iter (dfs []) (Int_tbl.sorted_keys adj);
  List.rev !cycles

let analyze ~servers ~blocked =
  let edges = List.concat_map edges_of_server servers in
  { edges; cycles = find_cycles edges; blocked }

let pp_edge ppf { waiter = w; held = g } =
  Format.fprintf ppf "c%d (%s %a) waits on c%d holding %s/%s %a of r%d"
    w.q_client
    (Mode.to_string w.q_eff_mode)
    Invariant.pp_ranges w.q_ranges g.client (Mode.to_string g.mode)
    (Lcm.state_to_string g.state)
    Invariant.pp_ranges g.ranges g.rid

let pp ppf r =
  Format.fprintf ppf "deadlock: %d blocked process(es)"
    (List.length (Engine.blocked_names r.blocked));
  List.iter
    (fun b -> Format.fprintf ppf "@\n  %a" Engine.pp_blocked b)
    r.blocked;
  (match r.edges with
  | [] -> Format.fprintf ppf "@\nno lock waits — stuck outside the DLM"
  | edges ->
      Format.fprintf ppf "@\nwait-for graph:";
      List.iter (fun e -> Format.fprintf ppf "@\n  %a" pp_edge e) edges);
  List.iter
    (fun cycle ->
      Format.fprintf ppf "@\ncycle: %s"
        (String.concat " -> "
           (List.map (Printf.sprintf "c%d") (cycle @ [ List.hd cycle ]))))
    r.cycles

let to_string r = Format.asprintf "@[<v>%a@]" pp r

let () =
  Printexc.register_printer (function
    | Deadlock_found r -> Some (to_string r)
    | _ -> None)
