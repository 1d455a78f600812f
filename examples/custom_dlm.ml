(* Using the SeqDLM library without ccPFS: the lock manager protects any
   resource you define.  Here three workers serialise updates to a
   shared "log" object under NBW locks and we watch early grant let the
   next holder in while the previous one is still writing back.

     dune exec examples/custom_dlm.exe *)

open Ccpfs_util
open Dessim
open Seqdlm

let params = Netsim.Params.default
let resource = 1

let () =
  let eng = Engine.create () in
  let server_node = Netsim.Node.create eng params ~name:"lockserver" () in
  let server =
    Lock_server.create eng params ~node:server_node ~name:"ls"
      ~policy:Policy.seqdlm
  in
  let writeback_log = ref [] in
  let workers =
    Array.init 3 (fun i ->
        let node = Netsim.Node.create eng params ~name:(Printf.sprintf "w%d" i) () in
        let hooks =
          {
            (* "Flushing" for a custom resource: 2 ms of write-back that
               early grant moves off the next holder's critical path. *)
            Lock_client.flush =
              (fun ~rid:_ ~ranges:_ ->
                Engine.sleep eng 2e-3;
                writeback_log := (i, Engine.now eng) :: !writeback_log);
            has_dirty = (fun ~rid:_ ~ranges:_ -> true);
            invalidate = (fun ~rid:_ ~ranges:_ -> ());
          }
        in
        Lock_client.create eng params ~node ~client_id:i
          ~route:(fun _ -> server)
          ~hooks)
  in
  for i = 0 to 2 do
    Engine.spawn eng ~name:(Printf.sprintf "worker%d" i) (fun () ->
        for round = 1 to 3 do
          Lock_client.with_lock workers.(i) ~rid:resource ~mode:Mode.NBW
            ~ranges:(Ranges.single (Interval.to_eof ~lo:0))
            (fun h ->
              Printf.printf "t=%-8s worker %d holds the log (SN %d%s)\n"
                (Units.seconds_to_string (Engine.now eng))
                i (Lock_client.sn h)
                (if Lock_client.is_canceling h then ", early-revoked" else ""));
          ignore round
        done)
  done;
  Engine.run eng;
  let stats = Lock_server.stats server in
  Printf.printf
    "\n%d grants, %d early grants (handed over before write-back finished), \
     %d early revocations, %d callbacks\n"
    stats.grants stats.early_grants stats.early_revocations stats.revokes_sent;
  Printf.printf "write-backs completed: %d\n" (List.length !writeback_log)
