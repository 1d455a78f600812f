(* Tests for the determinism & protocol lint (lib/lint): the analyzer
   is run over the planted-violation corpus in lint_fixtures/, built as
   a sibling library so its .cmt files sit next to this test in _build.

   Per rule the corpus carries three files: <rule>_bad.ml (must fire),
   <rule>_ok.ml (must stay silent) and <rule>_allow.ml (a justified
   [@lint.allow] — must become a suppression record, not a finding).
   U001 and U002 judge interfaces, so their three are .mli/.ml pairs,
   and u001_user.ml and u002_user.ml are the siblings that reference
   the ok fixtures' exports;
   l_meta.ml plants the three suppression-misuse findings L000/L001/
   L002.  d001_bad.ml is the exact pre-PR 4 [group_by_stripe] shape, so
   this suite is also the regression proof that reverting that fix
   would be caught at build time. *)

(* The corpus is found from this executable's own location (it is
   built in the same directory), so the suite runs from any working
   directory: under [dune runtest] and from the repository root alike. *)
let fixtures_root =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    "lint_fixtures/.lint_fixtures.objs/byte"

let report = lazy (Lint.Analyze.run_roots [ fixtures_root ])

(* Files are matched by stem, so a U001 finding in u001_bad.mli is
   found under "u001_bad.ml". *)
let same_stem name file =
  Filename.remove_extension (Filename.basename file)
  = Filename.remove_extension name

let findings_in name =
  List.filter
    (fun (f : Lint.Diagnostic.finding) -> same_stem name f.file)
    (Lazy.force report).Lint.Diagnostic.findings

let suppressions_in name =
  List.filter
    (fun (s : Lint.Diagnostic.suppression) -> same_stem name s.s_file)
    (Lazy.force report).Lint.Diagnostic.suppressions

let rules_of findings =
  List.sort_uniq String.compare
    (List.map (fun (f : Lint.Diagnostic.finding) -> f.rule) findings)

(* The bad fixture must fire its own rule (and nothing else), the ok
   fixture must be silent, and the allow fixture must turn the planted
   violation into a suppression that kept its justification. *)
let check_rule rule () =
  let stem = String.lowercase_ascii rule in
  let bad = findings_in (stem ^ "_bad.ml") in
  Alcotest.(check bool)
    (Printf.sprintf "%s fires on %s_bad.ml" rule stem)
    true (bad <> []);
  Alcotest.(check (list string))
    (Printf.sprintf "only %s in %s_bad.ml" rule stem)
    [ rule ] (rules_of bad);
  Alcotest.(check (list string))
    (Printf.sprintf "%s_ok.ml is clean" stem)
    []
    (rules_of (findings_in (stem ^ "_ok.ml")));
  Alcotest.(check (list string))
    (Printf.sprintf "%s_allow.ml reports no finding" stem)
    []
    (rules_of (findings_in (stem ^ "_allow.ml")));
  match suppressions_in (stem ^ "_allow.ml") with
  | [ s ] ->
      Alcotest.(check string)
        (Printf.sprintf "%s_allow.ml suppression rule" stem)
        rule s.Lint.Diagnostic.s_rule;
      Alcotest.(check bool)
        (Printf.sprintf "%s_allow.ml justification kept" stem)
        true
        (String.length s.Lint.Diagnostic.s_justification > 10)
  | l ->
      Alcotest.failf "%s_allow.ml: expected exactly one suppression, got %d"
        stem (List.length l)

let test_finding_counts () =
  (* The plants are precise: each bad file carries a known number of
     violations, so a partially-firing rule can't pass unnoticed. *)
  List.iter
    (fun (file, n) ->
      Alcotest.(check int)
        (Printf.sprintf "findings in %s" file)
        n
        (List.length (findings_in file)))
    [
      ("d001_bad.ml", 3) (* fold + iter + Int_tbl.fold *);
      ("d002_bad.ml", 2) (* Random.int + Random.float *);
      ("d003_bad.ml", 3) (* gettimeofday + Sys.time + Unix.time *);
      ("p001_bad.ml", 2) (* failwith + assert false *);
      ("p002_bad.ml", 2) (* (=) + compare *);
      ("u001_bad.ml", 1) (* orphan *);
      ("u001_user.ml", 0);
      ("u002_bad.ml", 1) (* unread *);
      ("u002_user.ml", 0);
    ]

let test_l_rules () =
  (* Suppression misuse is itself reported: unknown rule id, missing
     justification, and a stale allow that never fired. *)
  Alcotest.(check (list string))
    "l_meta.ml misuse findings"
    [ "L000"; "L001"; "L002" ]
    (rules_of (findings_in "l_meta.ml"));
  Alcotest.(check (list string))
    "no suppressions survive from l_meta.ml" []
    (List.map
       (fun (s : Lint.Diagnostic.suppression) -> s.Lint.Diagnostic.s_rule)
       (suppressions_in "l_meta.ml"))

let test_report_deterministic () =
  (* Two independent analyses of the same corpus must render
     byte-identically — the lint polices determinism, so it holds
     itself to the same bar. *)
  let render () = Lint.Report.render (Lint.Analyze.run_roots [ fixtures_root ]) in
  Alcotest.(check string) "same corpus, same report" (render ()) (render ())

let test_scans_whole_corpus () =
  let r = Lazy.force report in
  Alcotest.(check bool)
    (Printf.sprintf "scanned the corpus (%d files)"
       r.Lint.Diagnostic.files_scanned)
    true
    (r.Lint.Diagnostic.files_scanned >= 16)

let suite =
  [
    ( "lint",
      [
        Alcotest.test_case "D001 hashtbl iteration order" `Quick
          (check_rule "D001");
        Alcotest.test_case "D002 unseeded randomness" `Quick
          (check_rule "D002");
        Alcotest.test_case "D003 wall-clock reads" `Quick (check_rule "D003");
        Alcotest.test_case "P001 crash in RPC-reply arm" `Quick
          (check_rule "P001");
        Alcotest.test_case "P002 polymorphic compare on floats" `Quick
          (check_rule "P002");
        Alcotest.test_case "U001 unreferenced exports" `Quick
          (check_rule "U001");
        Alcotest.test_case "U002 exported fields nothing reads" `Quick
          (check_rule "U002");
        Alcotest.test_case "planted finding counts" `Quick test_finding_counts;
        Alcotest.test_case "suppression misuse (L-rules)" `Quick test_l_rules;
        Alcotest.test_case "report is deterministic" `Quick
          test_report_deterministic;
        Alcotest.test_case "corpus fully scanned" `Quick
          test_scans_whole_corpus;
      ] );
  ]
