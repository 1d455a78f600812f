(* Tests for the workload generators: the offset streams must match the
   benchmark definitions exactly (§V). *)

open Ccpfs_util
open Workloads

let offs l = List.map (fun (a : Access.t) -> a.off) l

(* ------------------------------------------------------------------ *)
(* IOR                                                                 *)
(* ------------------------------------------------------------------ *)

let test_ior_segmented () =
  let a = Ior.accesses ~pattern:Access.N1_segmented ~nprocs:4 ~rank:1
      ~xfer:100 ~blocks:3
  in
  Alcotest.(check (list int)) "contiguous segment" [ 300; 400; 500 ] (offs a);
  Alcotest.(check bool) "lengths" true
    (List.for_all (fun (x : Access.t) -> x.len = 100) a)

let test_ior_strided () =
  let a =
    Ior.accesses ~pattern:Access.N1_strided ~nprocs:4 ~rank:1 ~xfer:100
      ~blocks:3
  in
  Alcotest.(check (list int)) "slot k*n+r" [ 100; 500; 900 ] (offs a)

let test_ior_nn () =
  let a = Ior.accesses ~pattern:Access.N_n ~nprocs:4 ~rank:2 ~xfer:100 ~blocks:3 in
  Alcotest.(check (list int)) "own file from 0" [ 0; 100; 200 ] (offs a);
  Alcotest.(check string) "rank file" "/ior.rank2"
    (Ior.file_of_rank ~pattern:Access.N_n ~rank:2);
  Alcotest.(check string) "shared file"
    (Ior.file_of_rank ~pattern:Access.N1_strided ~rank:0)
    (Ior.file_of_rank ~pattern:Access.N1_segmented ~rank:3)

let prop_ior_disjoint_cover =
  let open QCheck in
  Test.make ~name:"IOR ranks partition the file without overlap" ~count:100
    (make
       ~print:(fun (n, x, b) -> Printf.sprintf "n=%d xfer=%d blocks=%d" n x b)
       Gen.(triple (int_range 1 8) (int_range 1 1000) (int_range 1 20)))
    (fun (nprocs, xfer, blocks) ->
      List.for_all
        (fun pattern ->
          let all =
            List.concat
              (List.init nprocs (fun rank ->
                   Ior.accesses ~pattern ~nprocs ~rank ~xfer ~blocks))
          in
          let sorted =
            List.sort Int.compare (List.map (fun (a : Access.t) -> a.off) all)
          in
          let rec disjoint = function
            | a :: b :: rest -> a + xfer <= b && disjoint (b :: rest)
            | [ _ ] | [] -> true
          in
          List.length all = nprocs * blocks
          && disjoint sorted
          && Access.total_length all = nprocs * blocks * xfer)
        [ Access.N1_segmented; Access.N1_strided ])

(* ------------------------------------------------------------------ *)
(* Tile-IO                                                             *)
(* ------------------------------------------------------------------ *)

let small_grid = { Tile_io.rows = 2; cols = 3; tile = 8; overlap = 2; elem = 4 }

let test_tile_counts () =
  Alcotest.(check int) "clients" 6 (Tile_io.nclients small_grid);
  let r = Tile_io.ranges small_grid ~rank:0 in
  Alcotest.(check int) "one range per tile row" 8 (List.length r);
  Alcotest.(check bool) "each range is tile width" true
    (List.for_all
       (fun iv -> Interval.length iv = small_grid.Tile_io.tile * 4)
       r);
  Alcotest.(check int) "bytes per client" (8 * 8 * 4)
    (Tile_io.bytes_per_client small_grid)

let test_tile_neighbours_overlap () =
  (* Tiles 0 and 1 share a 2-pixel vertical strip; tiles 0 and 3 share a
     2-pixel horizontal strip (rank 3 = row 1, col 0). *)
  let tile rank = Ranges.of_list (Tile_io.ranges small_grid ~rank) in
  let r0 = tile 0 in
  Alcotest.(check bool) "horizontal neighbours overlap" true
    (Ranges.overlaps r0 (tile 1));
  Alcotest.(check bool) "vertical neighbours overlap" true
    (Ranges.overlaps r0 (tile 3));
  Alcotest.(check bool) "distant tiles disjoint" false
    (Ranges.overlaps r0 (tile 2))

let test_tile_paper_grid () =
  let g = Tile_io.paper_grid in
  Alcotest.(check int) "96 clients" 96 (Tile_io.nclients g);
  Alcotest.(check int) "1.6 GB per client" (20480 * 20480 * 4)
    (Tile_io.bytes_per_client g);
  let s = Tile_io.scaled_grid g ~scale:0.1 in
  Alcotest.(check int) "scaling keeps the grid" 96 (Tile_io.nclients s);
  Alcotest.(check bool) "tile shrinks" true (s.Tile_io.tile < g.Tile_io.tile)

let test_tile_union_covers_file () =
  (* The union of all clients' ranges covers the whole global array. *)
  let m =
    List.fold_left
      (fun m rank ->
        List.fold_left
          (fun m iv -> Extent_map.set m iv ())
          m
          (Tile_io.ranges small_grid ~rank))
      Extent_map.empty
      (List.init (Tile_io.nclients small_grid) (fun r -> r))
  in
  Alcotest.(check bool) "full coverage" true
    (Extent_map.covered m
       (Interval.v ~lo:0 ~hi:(Tile_io.file_bytes small_grid)))

(* ------------------------------------------------------------------ *)
(* VPIC                                                                *)
(* ------------------------------------------------------------------ *)

let test_vpic_layout () =
  let a = Vpic.accesses ~nprocs:2 ~rank:1 ~particles:10 ~iterations:2 in
  Alcotest.(check int) "8 vars x 2 iters" 16 (List.length a);
  let seg = 10 * 4 in
  (* iteration 0, var 0: base 0; rank 1 writes at seg. *)
  Alcotest.(check int) "first write" seg (List.hd a).Access.off;
  Alcotest.(check bool) "all writes are P*4 bytes" true
    (List.for_all (fun (x : Access.t) -> x.len = seg) a);
  Alcotest.(check int) "write size" (256 * 1024)
    (Vpic.write_size ~particles:65536)

let test_vpic_disjoint_total () =
  let nprocs = 4 and particles = 16 and iterations = 3 in
  let all =
    List.concat
      (List.init nprocs (fun rank ->
           Vpic.accesses ~nprocs ~rank ~particles ~iterations))
  in
  let m =
    List.fold_left
      (fun m (a : Access.t) ->
        Extent_map.set m (Access.interval a) ())
      Extent_map.empty all
  in
  let total = Vpic.total_bytes ~nprocs ~particles ~iterations in
  Alcotest.(check int) "total bytes" total (Access.total_length all);
  Alcotest.(check bool) "file fully covered, no gaps" true
    (Extent_map.covered m (Interval.v ~lo:0 ~hi:total))

let suite =
  [
    ( "workloads.ior",
      [
        Alcotest.test_case "segmented offsets" `Quick test_ior_segmented;
        Alcotest.test_case "strided offsets" `Quick test_ior_strided;
        Alcotest.test_case "N-N offsets and files" `Quick test_ior_nn;
        QCheck_alcotest.to_alcotest ~rand:(Fuzz.Seed.rand_state ())
          prop_ior_disjoint_cover;
      ] );
    ( "workloads.tile_io",
      [
        Alcotest.test_case "tile geometry" `Quick test_tile_counts;
        Alcotest.test_case "neighbour overlaps" `Quick
          test_tile_neighbours_overlap;
        Alcotest.test_case "paper grid" `Quick test_tile_paper_grid;
        Alcotest.test_case "tiles cover the array" `Quick
          test_tile_union_covers_file;
      ] );
    ( "workloads.vpic",
      [
        Alcotest.test_case "variable layout" `Quick test_vpic_layout;
        Alcotest.test_case "ranks disjoint and covering" `Quick
          test_vpic_disjoint_total;
      ] );
  ]
