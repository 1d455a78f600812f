(* Direct tests of the namespace service (the NFS stand-in). *)

open Dessim
open Ccpfs

let params = Netsim.Params.default

let with_meta f =
  let eng = Engine.create () in
  let node = Netsim.Node.create eng params ~name:"meta" () in
  let client = Netsim.Node.create eng params ~name:"c" () in
  let meta = Meta_server.create eng params ~node in
  let ep = Meta_server.endpoint meta in
  Engine.spawn eng ~name:"test" (fun () ->
      f meta (fun req -> Netsim.Rpc.call ep ~src:client req));
  Engine.run eng

let layout = Layout.v ~stripe_count:2 ()

let test_create_open_stat () =
  with_meta (fun _ call ->
      (match call (Meta_server.Open { path = "/a"; create = true; layout }) with
      | Meta_server.Attrs a ->
          Alcotest.(check int) "first fid" 1 a.fid;
          Alcotest.(check int) "empty" 0 a.size
      | _ -> Alcotest.fail "expected attrs");
      (match call (Meta_server.Open { path = "/a"; create = true; layout }) with
      | Meta_server.Attrs a -> Alcotest.(check int) "same fid on reopen" 1 a.fid
      | _ -> Alcotest.fail "expected attrs");
      (match call (Meta_server.Open { path = "/b"; create = true; layout }) with
      | Meta_server.Attrs a -> Alcotest.(check int) "next fid" 2 a.fid
      | _ -> Alcotest.fail "expected attrs"))

let test_enoent () =
  with_meta (fun _ call ->
      (match call (Meta_server.Open { path = "/nope"; create = false; layout })
       with
      | Meta_server.Enoent -> ()
      | _ -> Alcotest.fail "expected Enoent");
      match call (Meta_server.Stat { fid = 99 }) with
      | Meta_server.Enoent -> ()
      | _ -> Alcotest.fail "expected Enoent on unknown fid")

let test_size_semantics () =
  with_meta (fun _ call ->
      (match call (Meta_server.Open { path = "/s"; create = true; layout }) with
      | Meta_server.Attrs _ -> ()
      | _ -> Alcotest.fail "create failed");
      let size () =
        match call (Meta_server.Stat { fid = 1 }) with
        | Meta_server.Attrs a -> a.size
        | _ -> Alcotest.fail "stat failed"
      in
      ignore (call (Meta_server.Update_size { fid = 1; size = 100 }));
      Alcotest.(check int) "grew" 100 (size ());
      (* Update_size only grows (concurrent appenders race upward). *)
      ignore (call (Meta_server.Update_size { fid = 1; size = 50 }));
      Alcotest.(check int) "no shrink via update" 100 (size ());
      (* Set_size (truncate) may shrink. *)
      ignore (call (Meta_server.Set_size { fid = 1; size = 30 }));
      Alcotest.(check int) "truncated" 30 (size ()))

let suite =
  [
    ( "pfs.meta",
      [
        Alcotest.test_case "create / reopen / fids" `Quick test_create_open_stat;
        Alcotest.test_case "enoent" `Quick test_enoent;
        Alcotest.test_case "size semantics" `Quick test_size_semantics;
      ] );
  ]
