(* ccpfs_lint — the determinism & protocol lint (DESIGN.md §12).

   Scans the given roots (directories or .cmt files, usually the built
   lib/ and bin/ trees) for .cmt files, runs Lint.Analyze over them and
   prints the report.  The code under each --refs root (bench/, test/)
   is not linted, but its references keep the roots' exports in use
   for rules U001 and U002.  Exit status: 0 clean, 1 findings, 2 usage or
   internal error.  `dune build @lint` drives it over the whole repo. *)

let usage () =
  prerr_endline
    "usage: ccpfs_lint [--report FILE] [--explain] [--refs DIR]... ROOT...\n\
     \n\
     Lints the .cmt files found under each ROOT.\n\
     \  --report FILE   also write the report to FILE\n\
     \  --refs DIR      read DIR's .cmt files for references only (U001, U002)\n\
     \  --explain       append each fired rule's rationale";
  exit 2

let () =
  let report_file = ref None in
  let explain = ref false in
  let roots = ref [] in
  let refs = ref [] in
  let rec parse = function
    | [] -> ()
    | "--report" :: file :: rest ->
        report_file := Some file;
        parse rest
    | "--report" :: [] -> usage ()
    | "--refs" :: dir :: rest ->
        refs := dir :: !refs;
        parse rest
    | "--refs" :: [] -> usage ()
    | "--explain" :: rest ->
        explain := true;
        parse rest
    | ("--help" | "-h") :: _ -> usage ()
    | root :: rest ->
        roots := root :: !roots;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let roots = List.rev !roots in
  if roots = [] then usage ();
  match Lint.Analyze.run_roots ~refs:(List.rev !refs) roots with
  | exception e ->
      Printf.eprintf "ccpfs_lint: internal error: %s\n" (Printexc.to_string e);
      exit 2
  | report ->
      let text = Lint.Report.render ~explain:!explain report in
      print_string text;
      (match !report_file with
      | None -> ()
      | Some file ->
          let oc = open_out file in
          output_string oc text;
          close_out oc);
      if report.findings <> [] then exit 1
