(** The cmt-walking analyzer.

    Loads dune-produced [.cmt] files, reconstructs typing environments
    from their summaries (over the load paths the compiler recorded) and
    walks each implementation's typedtree, firing the {!Rules.all}
    checks.  Findings suppressed by an in-scope
    [\[@lint.allow "RULE justification"\]] become {!Diagnostic.suppression}
    records instead; malformed or unused suppressions are L-rule
    findings. *)

val run_roots : ?refs:string list -> string list -> Diagnostic.report
(** Lint the [.cmt] files under the given files/directories, then check
    every value their [.cmti] files export (rule U001) against the
    references made by the units under the roots and under [refs],
    whose code is read for references only.  The compiler load path is
    taken from the cmts' recorded paths (resolved against ./, ../ and
    ../../ so it works both from the build root and from test
    directories). *)
