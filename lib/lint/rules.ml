type t = { id : string; title : string; rationale : string }

let all =
  [
    {
      id = "D001";
      title = "order-sensitive Hashtbl traversal";
      rationale =
        "Hashtbl.iter/fold/to_seq (and Hashtbl.hash-keyed folds) visit \
         entries in hash-bucket order, which varies under randomized \
         hashing and across processes; Int_tbl.iter/fold/to_seq visit \
         them in an order that depends on the table's size history.  \
         Three shipped nondeterminism bugs of exactly this class were \
         fixed by hand (client-cache flush tie-break, data-server stripe \
         sweeps, client group_by_stripe).  Iterate sorted keys instead \
         (Ccpfs_util.Int_tbl.iter_sorted/fold_sorted), or carry \
         [@lint.allow \"D001 <why the site is order-insensitive>\"].";
    };
    {
      id = "D002";
      title = "unseeded or ambient randomness";
      rationale =
        "Stdlib.Random draws from ambient global (or self_init'd) state, \
         so two runs of the same seed diverge and fuzz failures stop \
         replaying.  All randomness must flow from an explicitly seeded \
         stream: Ccpfs_util.Det_random (the one file allowed to touch \
         Stdlib.Random) or Dessim.Engine.random_float.";
    };
    {
      id = "D003";
      title = "wall-clock / OS time read";
      rationale =
        "Unix.gettimeofday, Unix.time and Sys.time read host time, which \
         differs on every run; simulation logic must use Engine.now.  \
         Only bench/ (host-time measurement is its purpose) is exempt; a \
         deliberate wall-clock benchmark elsewhere carries \
         [@lint.allow \"D003 <why host time is the measured quantity>\"].";
    };
    {
      id = "P001";
      title = "assert false / failwith in an RPC-reply match arm";
      rationale =
        "An unexpected reply shape is a protocol bug to diagnose, not a \
         crash: PR 2 and PR 5 converted nine shipped `| _ -> assert \
         false` reply arms into Ccpfs.Protocol_error carrying the \
         endpoint, request and offending reply.  Raise \
         Ccpfs.Protocol_error (e.g. via Protocol_error.fail) instead.";
    };
    {
      id = "P002";
      title = "polymorphic compare on a float/function/mutable-carrying type";
      rationale =
        "Structural =, <>, compare, min/max on compound types containing \
         floats (nan-breaks-reflexivity), functions (raises at runtime) \
         or mutable fields (compares a moment, not an identity) is how \
         protocol state sneaks nondeterministic or crashing comparisons \
         in.  Write a field-wise comparison naming the intended key.";
    };
    {
      id = "U001";
      title = "exported value no other compilation unit references";
      rationale =
        "A value a lib/ interface exports but no other unit in lib/, \
         bin/, bench/ or test/ names is surface kept alive by nothing: \
         it is read, documented and maintained for no caller; the rule's \
         first run found 68 such values.  Delete the export (and the \
         implementation, if its own module does not use it), or carry \
         [@@lint.allow \"U001 <why it stays>\"] on the val.";
    };
    {
      id = "U002";
      title = "exported record field no unit reads";
      rationale =
        "A record field a lib/ interface exports (a record type's or a \
         constructor's inline record's) that no unit in lib/, \
         bin/, bench/ or test/ reads, by field access or pattern, is \
         written, documented and carried in every record for no reader \
         (warning 69 skips fields exported through an interface).  \
         Delete the field, or carry [@lint.allow \"U002 <why it \
         stays>\"] on its declaration.";
    };
    {
      id = "L000";
      title = "lint.allow names an unknown rule";
      rationale =
        "A suppression that misspells its rule id silently allows \
         nothing; the attribute must name an existing rule.";
    };
    {
      id = "L001";
      title = "lint.allow without a justification";
      rationale =
        "Every suppression is a reviewed exception: the attribute \
         payload is \"<RULE> <justification>\", and the justification \
         must be non-empty.";
    };
    {
      id = "L002";
      title = "unused lint.allow";
      rationale =
        "A suppression whose scope no longer contains a finding of its \
         rule is stale and must be deleted, or the allowlist grows \
         monotonically.";
    };
  ]

let known id = List.exists (fun r -> r.id = id) all
let find id = List.find_opt (fun r -> r.id = id) all
