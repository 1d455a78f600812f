(* Prints an OCaml module of Case.to_ocaml_test skeletons: the first
   seed from 24301 that carries each segment kind, and the first
   analytic case.  Its [cases] list is what the fuzz suite compiles and
   replays. *)

let first p =
  let rec go s =
    let c = Fuzz.Gen.of_seed s in
    if p c then c else go (s + 1)
  in
  go 24301

let () =
  let picks =
    List.map
      (fun k ->
        ( Fuzz.Segment.kind_name k,
          first (fun c -> Fuzz.Case.count (Fuzz.Segment.is k) c > 0) ))
      Fuzz.Segment.kinds
    @ [
        ( "analytic",
          first (fun c ->
              match c.Fuzz.Case.kind with
              | Fuzz.Case.Analytic _ -> true
              | Fuzz.Case.Sim _ -> false) );
      ]
  in
  let seeds =
    List.sort_uniq compare (List.map (fun (_, c) -> c.Fuzz.Case.seed) picks)
  in
  List.iter
    (fun s ->
      print_string (Fuzz.Case.to_ocaml_test (Fuzz.Gen.of_seed s));
      print_newline ())
    seeds;
  print_string "let cases =\n  [\n";
  List.iter
    (fun (label, (c : Fuzz.Case.t)) ->
      Printf.printf "    (%S, %d, case_%d, test_fuzz_seed_%d);\n" label c.seed
        c.seed c.seed)
    picks;
  print_string "  ]\n"
