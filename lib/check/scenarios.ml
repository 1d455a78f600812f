open Ccpfs_util
open Dessim
open Seqdlm

let params = Netsim.Params.default

let three_client_contention ~perm choose =
  let eng = Engine.create () in
  Engine.set_tie_chooser eng choose;
  let snode = Netsim.Node.create eng params ~name:"server" () in
  let server =
    Lock_server.create eng params ~node:snode ~name:"ls" ~policy:Policy.seqdlm
  in
  let granted = ref 0 in
  Array.iteri
    (fun i slot ->
      let node =
        Netsim.Node.create eng params ~name:(Printf.sprintf "c%d" i) ()
      in
      let hooks =
        {
          Lock_client.flush = (fun ~rid:_ ~ranges:_ -> Engine.sleep eng 1e-4);
          has_dirty = (fun ~rid:_ ~ranges:_ -> true);
          invalidate = (fun ~rid:_ ~ranges:_ -> ());
        }
      in
      let lc =
        Lock_client.create eng params ~node ~client_id:i
          ~route:(fun _ -> server)
          ~hooks
      in
      Engine.spawn eng ~name:(Printf.sprintf "w%d" i) (fun () ->
          (* Stagger the issue instants (incommensurate with the RTT so no
             accidental alignment): [perm] decides who races first, the
             explorer covers every tie the protocol then produces. *)
          if slot > 0 then Engine.sleep eng (float_of_int slot *. 1.3e-6);
          Lock_client.with_lock lc ~rid:1 ~mode:Mode.NBW
            ~ranges:(Ranges.single (Interval.v ~lo:0 ~hi:4096))
            (fun _ -> incr granted)))
    perm;
  Engine.run eng;
  Invariant.check_server server;
  if !granted <> 3 then
    Violation.fail ~inv:"liveness" "only %d of 3 contending writers granted"
      !granted

let arrival_orders =
  [
    [| 0; 1; 2 |]; [| 0; 2; 1 |]; [| 1; 0; 2 |]; [| 1; 2; 0 |]; [| 2; 0; 1 |];
    [| 2; 1; 0 |];
  ]

let explore_contention ?max_schedules () =
  List.fold_left
    (fun (acc : Explore.result) perm ->
      let r = Explore.run ?max_schedules (three_client_contention ~perm) in
      {
        Explore.schedules = acc.Explore.schedules + r.Explore.schedules;
        complete = acc.Explore.complete && r.Explore.complete;
      })
    { Explore.schedules = 0; complete = true }
    arrival_orders
