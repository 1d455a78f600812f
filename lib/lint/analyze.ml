(* Typedtree-based determinism & protocol lint.

   The analyzer loads dune-produced .cmt files (compiler-libs), rebuilds
   typing environments from their summaries (Envaux over the recorded
   load paths) and walks every implementation with a Tast_iterator,
   firing the rules in Rules.all.  Suppression is scoped and justified:
   an expression or let-binding carrying
     [@lint.allow "D001 <why this site is exempt>"]
   allows findings of that one rule inside its subtree, records the
   justification in the report, and is itself checked (unknown rule,
   missing justification and unused suppressions are findings). *)

module SS = Set.Make (String)

(* ------------------------------------------------------------------ *)
(* Path normalization                                                 *)

(* Dune wrapped-library units are named Lib__Module, so the same value
   reaches the typedtree as either "Ccpfs.Meta_server.resp" (through the
   alias module) or "Ccpfs__Meta_server.resp" (directly).  Treating "__"
   as a module separator makes both spell the same component list. *)
let split_components name =
  let buf = Buffer.create (String.length name) in
  let n = String.length name in
  let i = ref 0 in
  while !i < n do
    if !i + 1 < n && name.[!i] = '_' && name.[!i + 1] = '_' then begin
      Buffer.add_char buf '.';
      i := !i + 2
    end
    else begin
      Buffer.add_char buf name.[!i];
      incr i
    end
  done;
  String.split_on_char '.' (Buffer.contents buf)
  |> List.filter (fun s -> s <> "")

let path_components p = split_components (Path.name p)

let last_n n l =
  let len = List.length l in
  if len <= n then l else List.filteri (fun i _ -> i >= len - n) l

let last2_name comps = String.concat "." (last_n 2 comps)

(* ------------------------------------------------------------------ *)
(* Rule tables                                                        *)

let d001_idents =
  [
    "Hashtbl.iter"; "Hashtbl.fold"; "Hashtbl.to_seq"; "Hashtbl.to_seq_keys";
    "Hashtbl.to_seq_values"; "Hashtbl.hash"; "Hashtbl.hash_param";
    "Int_tbl.iter"; "Int_tbl.fold"; "Int_tbl.to_seq"; "Int_tbl.to_seq_keys";
    "Int_tbl.to_seq_values";
  ]

let d003_idents =
  [ "Unix.gettimeofday"; "Unix.time"; "Sys.time"; "Unix.localtime";
    "Unix.gmtime" ]

let p001_rpc_entries = [ "Rpc.call"; "Rpc.call_reliable"; "Rpc.call_fenced" ]

let p001_reply_types =
  [
    "Meta_server.resp"; "Data_server.io_resp"; "Rpc.attempt";
    "Types.server_msg"; "Types.ctl_msg";
  ]

let p002_operators = [ "="; "<>"; "<"; ">"; "<="; ">="; "compare"; "min"; "max" ]

let immediate_toplevel =
  [
    "int"; "char"; "bool"; "unit"; "string"; "bytes"; "float"; "int32";
    "int64"; "nativeint";
  ]

(* Built-in site allowlists (everything else goes through [@lint.allow]):
   D002 — Ccpfs_util.Det_random is the one module allowed to seed and
   drive Stdlib.Random; D003 — bench/ measures host time on purpose. *)
let normalize_file f = String.map (fun c -> if c = '\\' then '/' else c) f

let d002_file_allowed file = Filename.basename file = "det_random.ml"

let d003_file_allowed file =
  let file = normalize_file file in
  String.length file >= 6
  && (String.sub file 0 6 = "bench/"
     ||
     let rec has_sub i =
       i + 7 <= String.length file
       && (String.sub file i 7 = "/bench/" || has_sub (i + 1))
     in
     has_sub 0)

(* ------------------------------------------------------------------ *)
(* Analysis context                                                   *)

type frame = {
  f_rule : string;
  f_just : string;
  f_file : string;
  f_line : int;
  mutable f_hits : int;
}

type ctx = {
  mutable findings : Diagnostic.finding list;
  mutable suppressions : Diagnostic.suppression list;
  mutable stack : frame list;
  (* rhs expressions of arms of a reply-typed match, pending their P001
     check when the walk reaches them (so their own attributes are in
     scope first) *)
  mutable reply_arms : Typedtree.expression list;
  mutable fallback_env : Env.t;
}

let loc_file_line_col (loc : Location.t) =
  let p = loc.loc_start in
  (normalize_file p.pos_fname, p.pos_lnum, p.pos_cnum - p.pos_bol)

let add_finding ctx ~rule ~loc message =
  let file, line, col = loc_file_line_col loc in
  ctx.findings <- { Diagnostic.rule; file; line; col; message } :: ctx.findings

let allowed ctx rule =
  match List.find_opt (fun f -> f.f_rule = rule) ctx.stack with
  | None -> false
  | Some f ->
      f.f_hits <- f.f_hits + 1;
      ctx.suppressions <-
        {
          Diagnostic.s_rule = rule;
          s_file = f.f_file;
          s_line = f.f_line;
          s_justification = f.f_just;
        }
        :: ctx.suppressions;
      true

(* ------------------------------------------------------------------ *)
(* [@lint.allow] parsing                                              *)

let attr_string_payload (attr : Parsetree.attribute) =
  match attr.attr_payload with
  | PStr
      [
        {
          pstr_desc =
            Pstr_eval
              ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
          _;
        };
      ] ->
      Some s
  | _ -> None

let split_ws s =
  String.split_on_char ' ' s
  |> List.concat_map (String.split_on_char '\n')
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun t -> t <> "")

(* Returns the frames opened by [attrs]; malformed suppressions become
   L-findings instead of frames. *)
let frames_of_attributes ctx (attrs : Parsetree.attributes) =
  List.filter_map
    (fun (attr : Parsetree.attribute) ->
      if attr.attr_name.txt <> "lint.allow" then None
      else
        let loc = attr.attr_loc in
        match attr_string_payload attr with
        | None ->
            add_finding ctx ~rule:"L001" ~loc
              "[@lint.allow] payload must be a string: \"<RULE> \
               <justification>\"";
            None
        | Some s -> (
            match split_ws s with
            | [] ->
                add_finding ctx ~rule:"L001" ~loc
                  "[@lint.allow] is empty; expected \"<RULE> \
                   <justification>\"";
                None
            | rule :: rest ->
                let rule =
                  match String.index_opt rule ':' with
                  | Some i -> String.sub rule 0 i
                  | None -> rule
                in
                if not (Rules.known rule) then begin
                  add_finding ctx ~rule:"L000" ~loc
                    (Printf.sprintf "[@lint.allow %S] names unknown rule %s"
                       s rule);
                  None
                end
                else if String.length rule > 0 && rule.[0] = 'L' then begin
                  add_finding ctx ~rule:"L000" ~loc
                    (Printf.sprintf
                       "rule %s polices the suppression mechanism and \
                        cannot itself be suppressed"
                       rule);
                  None
                end
                else if rest = [] then begin
                  add_finding ctx ~rule:"L001" ~loc
                    (Printf.sprintf
                       "[@lint.allow \"%s\"] carries no justification" rule);
                  None
                end
                else
                  let file, line, _ = loc_file_line_col loc in
                  Some
                    {
                      f_rule = rule;
                      f_just = String.concat " " rest;
                      f_file = file;
                      f_line = line;
                      f_hits = 0;
                    }))
    attrs

let push_frames ctx frames = ctx.stack <- frames @ ctx.stack

let pop_frames ctx frames =
  List.iter
    (fun f ->
      if f.f_hits = 0 then
        ctx.findings <-
          {
            Diagnostic.rule = "L002";
            file = f.f_file;
            line = f.f_line;
            col = 0;
            message =
              Printf.sprintf
                "[@lint.allow \"%s %s\"] suppresses nothing; delete it"
                f.f_rule f.f_just;
          }
          :: ctx.findings)
    frames;
  ctx.stack <-
    List.filter (fun f -> not (List.memq f frames)) ctx.stack

(* ------------------------------------------------------------------ *)
(* Typing environments                                                *)

let resolve_env ctx (env : Env.t) =
  try Envaux.env_of_only_summary env with _ -> ctx.fallback_env

let expand ctx env ty =
  let env = resolve_env ctx env in
  (env, try Ctype.expand_head env ty with _ -> ty)

(* ------------------------------------------------------------------ *)
(* P002: structural scan for floats / functions / mutable fields      *)

let rec first_some f = function
  | [] -> None
  | x :: rest -> ( match f x with Some _ as r -> r | None -> first_some f rest)

let rec offending_component env seen depth ty : string option =
  if depth > 8 then None
  else
    let ty = try Ctype.expand_head env ty with _ -> ty in
    match Types.get_desc ty with
    | Tarrow _ -> Some "a function"
    | Ttuple l -> first_some (offending_component env seen (depth + 1)) l
    | Tconstr (p, args, _) -> (
        let name = Path.name p in
        if name = "float" then Some "a float"
        else if name = "array" then Some "an array (mutable)"
        else if
          List.mem name
            [ "int"; "char"; "bool"; "unit"; "string"; "bytes"; "int32";
              "int64"; "nativeint"; "exn" ]
        then None
        else if SS.mem name !seen then None
        else begin
          seen := SS.add name !seen;
          let of_label (ld : Types.label_declaration) =
            if ld.ld_mutable = Asttypes.Mutable then
              Some (Printf.sprintf "mutable field %s" (Ident.name ld.ld_id))
            else offending_component env seen (depth + 1) ld.ld_type
          in
          let from_decl =
            match Env.find_type p env with
            | exception _ -> None
            | decl -> (
                match decl.type_kind with
                | Type_record (lds, _) -> first_some of_label lds
                | Type_variant (cds, _) ->
                    first_some
                      (fun (cd : Types.constructor_declaration) ->
                        match cd.cd_args with
                        | Cstr_tuple tys ->
                            first_some
                              (offending_component env seen (depth + 1))
                              tys
                        | Cstr_record lds -> first_some of_label lds)
                      cds
                | Type_abstract | Type_open -> (
                    match decl.type_manifest with
                    | Some t -> offending_component env seen (depth + 1) t
                    | None -> None))
          in
          match from_decl with
          | Some _ as r -> r
          | None -> first_some (offending_component env seen (depth + 1)) args
        end)
    | _ -> None

(* Bare base types (including bare float) are out of scope: the rule
   targets compound protocol types, not `x = 0.0`. *)
let p002_offense ctx (arg : Typedtree.expression) =
  let env, ty = expand ctx arg.exp_env arg.exp_type in
  match Types.get_desc ty with
  | Tconstr (p, _, _) when List.mem (Path.name p) immediate_toplevel -> None
  | Tvar _ | Tunivar _ -> None
  | _ ->
      offending_component env (ref SS.empty) 0 ty
      |> Option.map (fun reason ->
             let tystr =
               try Format.asprintf "%a" Printtyp.type_expr arg.exp_type
               with _ -> "<type>"
             in
             (reason, tystr))

(* ------------------------------------------------------------------ *)
(* Expression shape helpers                                           *)

let ident_path (e : Typedtree.expression) =
  match e.exp_desc with Texp_ident (p, _, _) -> Some p | _ -> None

let is_assert_false (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_assert (inner, _) -> (
      match inner.exp_desc with
      | Texp_construct (_, cd, []) -> cd.cstr_name = "false"
      | _ -> false)
  | _ -> false

let failwith_like (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_apply (f, _) -> (
      match ident_path f with
      | Some p -> (
          match path_components p with
          | [ "Stdlib"; (("failwith" | "invalid_arg") as fn) ] -> Some fn
          | _ -> None)
      | None -> None)
  | _ -> None

(* Is [scrut] the direct result of an Rpc call entry point? *)
let scrutinee_is_rpc_call (scrut : Typedtree.expression) =
  let rec head (e : Typedtree.expression) =
    match e.exp_desc with
    | Texp_apply (f, _) -> ident_path f
    | Texp_match (_, _, _) | Texp_sequence _ -> None
    | Texp_letmodule (_, _, _, _, body) -> head body
    | Texp_let (_, _, body) -> head body
    | _ -> None
  in
  match head scrut with
  | Some p -> List.mem (last2_name (path_components p)) p001_rpc_entries
  | None -> false

let scrutinee_is_reply_typed ctx (scrut : Typedtree.expression) =
  let _, ty = expand ctx scrut.exp_env scrut.exp_type in
  match Types.get_desc ty with
  | Tconstr (p, _, _) ->
      List.mem (last2_name (path_components p)) p001_reply_types
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Per-expression rule checks                                         *)

let check_ident ctx (e : Typedtree.expression) p =
  let comps = path_components p in
  let last2 = last2_name comps in
  if List.mem last2 d001_idents then begin
    if not (allowed ctx "D001") then
      add_finding ctx ~rule:"D001" ~loc:e.exp_loc
        (Printf.sprintf
           "%s iterates in hash-bucket order, which is not deterministic \
            under randomized hashing; key the table by int and iterate \
            sorted keys (Ccpfs_util.Int_tbl.iter_sorted/fold_sorted) or \
            justify with [@lint.allow \"D001 ...\"]"
           last2)
  end
  else begin
    let file, _, _ = loc_file_line_col e.exp_loc in
    (* module components = everything but the value name itself *)
    let rec module_comps = function [] | [ _ ] -> [] | c :: r -> c :: module_comps r in
    let is_random = List.mem "Random" (module_comps comps) in
    if is_random then begin
      if not (d002_file_allowed file || allowed ctx "D002") then
        add_finding ctx ~rule:"D002" ~loc:e.exp_loc
          (Printf.sprintf
             "%s draws from ambient random state; derive the stream from \
              Ccpfs_util.Det_random or Engine.random_float so runs replay"
             (String.concat "." comps))
    end
    else if List.mem last2 d003_idents then
      if not (d003_file_allowed file || allowed ctx "D003") then
        add_finding ctx ~rule:"D003" ~loc:e.exp_loc
          (Printf.sprintf
             "%s reads host time; simulation logic must use Engine.now \
              (bench/ is exempt, deliberate wall-clock measurement needs \
              [@lint.allow \"D003 ...\"])"
             last2)
  end

let check_apply ctx (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_apply (f, args) -> (
      match ident_path f with
      | Some p -> (
          match path_components p with
          | [ "Stdlib"; op ] when List.mem op p002_operators -> (
              let first_arg =
                List.find_map
                  (function
                    | (Asttypes.Nolabel, Some (a : Typedtree.expression)) ->
                        Some a
                    | _ -> None)
                  args
              in
              match first_arg with
              | None -> ()
              | Some arg -> (
                  match p002_offense ctx arg with
                  | None -> ()
                  | Some (reason, tystr) ->
                      if not (allowed ctx "P002") then
                        add_finding ctx ~rule:"P002" ~loc:e.exp_loc
                          (Printf.sprintf
                             "polymorphic (%s) on type %s, which contains \
                              %s; write a field-wise comparison naming \
                              the intended key"
                             op tystr reason)))
          | _ -> ())
      | None -> ())
  | _ -> ()

let check_match ctx (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_match (scrut, cases, _) ->
      if scrutinee_is_rpc_call scrut || scrutinee_is_reply_typed ctx scrut
      then
        List.iter
          (fun (c : Typedtree.computation Typedtree.case) ->
            ctx.reply_arms <- c.c_rhs :: ctx.reply_arms)
          cases
  | _ -> ()

let check_reply_arm ctx (e : Typedtree.expression) =
  if List.memq e ctx.reply_arms then begin
    ctx.reply_arms <- List.filter (fun a -> not (a == e)) ctx.reply_arms;
    let offense =
      if is_assert_false e then Some "assert false"
      else Option.map (fun f -> f ^ " _") (failwith_like e)
    in
    match offense with
    | Some what ->
        if not (allowed ctx "P001") then
          add_finding ctx ~rule:"P001" ~loc:e.exp_loc
            (Printf.sprintf
               "RPC-reply match arm is `%s`; raise Ccpfs.Protocol_error \
                with the endpoint, request and offending reply \
                (Protocol_error.fail) instead"
               what)
    | None -> ()
  end

(* ------------------------------------------------------------------ *)
(* The walk                                                           *)

let iterator ctx =
  let open Tast_iterator in
  let expr sub (e : Typedtree.expression) =
    let frames = frames_of_attributes ctx e.exp_attributes in
    push_frames ctx frames;
    check_reply_arm ctx e;
    (match ident_path e with Some p -> check_ident ctx e p | None -> ());
    check_apply ctx e;
    check_match ctx e;
    default_iterator.expr sub e;
    pop_frames ctx frames
  in
  let value_binding sub (vb : Typedtree.value_binding) =
    let frames = frames_of_attributes ctx vb.vb_attributes in
    push_frames ctx frames;
    default_iterator.value_binding sub vb;
    pop_frames ctx frames
  in
  { default_iterator with expr; value_binding }

(* ------------------------------------------------------------------ *)
(* U001: exported values no other unit references                     *)

(* A value is named by its component list: the unit's module name split
   at "__", any submodule, then the value name, so
   "Seqdlm.Lock_server.grant", "Seqdlm__Lock_server.grant" and a local
   [module L = Seqdlm.Lock_server] followed by "L.grant" all name the
   same value.  Each unit's walk yields raw uses; they are resolved
   against the module aliases and includes of every unit at the end,
   because a unit may name another unit's alias before that unit has
   been read. *)

module KM = Map.Make (struct
  type t = string list

  let compare = List.compare String.compare
end)

type use =
  | Value of string list  (** a value path *)
  | Whole of string list
      (** a module used as a whole (packed, constrained, passed to a
          functor whose parameter could not be read): every value it
          exports counts as referenced *)
  | Alias of string list * string list  (** [module A = B] *)
  | Include of string list * string list  (** module A does [include B] *)

let rec alias_target (me : Typedtree.module_expr) =
  match me.mod_desc with
  | Tmod_ident (p, _) -> Some p
  | Tmod_constraint (me, _, _, _) -> alias_target me
  | _ -> None

(* The value names of a functor's parameter signature: what the functor
   can take from its argument. *)
let functor_param_values ctx (f : Typedtree.module_expr) =
  let env = resolve_env ctx f.mod_env in
  match Mtype.scrape env f.mod_type with
  | Mty_functor (Named (_, mty), _) -> (
      match Mtype.scrape env mty with
      | Mty_signature sg ->
          Some
            (List.filter_map
               (function
                 | Types.Sig_value (id, _, _) -> Some (Ident.name id)
                 | _ -> None)
               sg)
      | _ -> None)
  | _ -> None
  | exception _ -> None

let collect_uses ctx ~unit_comps (str : Typedtree.structure) =
  let uses = ref [] in
  let emit u = uses := u :: !uses in
  let locals = Hashtbl.create 16 in
  let rec resolve (p : Path.t) =
    match p with
    | Pident id -> (
        match Hashtbl.find_opt locals (Ident.unique_name id) with
        | Some comps -> comps
        | None ->
            if Ident.persistent id then split_components (Ident.name id)
            else [ "%" ^ Ident.unique_name id ])
    | Pdot (p, s) -> resolve p @ [ s ]
    | Papply _ | Pextra_ty _ -> [ "%apply" ]
  in
  (* [prefix] names the module being walked; [None] inside an anonymous
     structure passed to a functor, whose includes the application
     accounts for. *)
  let prefix = ref (Some unit_comps) in
  let within p f =
    let saved = !prefix in
    prefix := p;
    f ();
    prefix := saved
  in
  let bind_module id name (me : Typedtree.module_expr) walk =
    let key = Ident.unique_name id in
    match alias_target me with
    | Some p ->
        let target = resolve p in
        Hashtbl.replace locals key target;
        Option.iter (fun pre -> emit (Alias (pre @ [ name ], target))) !prefix
    | None ->
        let here =
          match !prefix with
          | Some pre -> pre @ [ name ]
          | None -> [ "%" ^ key ]
        in
        Hashtbl.replace locals key here;
        within (Some here) walk
  in
  let open Tast_iterator in
  let module_binding sub (mb : Typedtree.module_binding) =
    match (mb.mb_id, mb.mb_name.txt) with
    | Some id, Some name ->
        bind_module id name mb.mb_expr (fun () ->
            default_iterator.module_binding sub mb)
    | _ -> default_iterator.module_binding sub mb
  in
  let module_expr sub (me : Typedtree.module_expr) =
    match me.mod_desc with
    | Tmod_ident (p, _) -> emit (Whole (resolve p))
    | Tmod_apply (f, arg, _) -> (
        sub.module_expr sub f;
        match functor_param_values ctx f with
        | None -> sub.module_expr sub arg
        | Some names -> (
            let take p =
              let m = resolve p in
              List.iter (fun n -> emit (Value (m @ [ n ]))) names
            in
            match (alias_target arg, arg.mod_desc) with
            | Some p, _ -> take p
            | None, Tmod_structure str ->
                List.iter
                  (fun (it : Typedtree.structure_item) ->
                    match it.str_desc with
                    | Tstr_include { incl_mod; _ } ->
                        Option.iter take (alias_target incl_mod)
                    | _ -> ())
                  str.str_items;
                within None (fun () -> sub.module_expr sub arg)
            | None, _ -> sub.module_expr sub arg))
    | _ -> default_iterator.module_expr sub me
  in
  let structure_item sub (it : Typedtree.structure_item) =
    match it.str_desc with
    | Tstr_include { incl_mod; _ } when alias_target incl_mod <> None -> (
        match (!prefix, alias_target incl_mod) with
        | Some pre, Some p -> emit (Include (pre, resolve p))
        | _ -> ())
    | _ -> default_iterator.structure_item sub it
  in
  (* U002: a field read is a [Value] use of the field's key, the record
     type's path and the label, as [exported] spells it.  A type of this
     unit reaches the typedtree as a local [Pident], resolved through the
     module its declaration was walked in. *)
  let type_homes = Hashtbl.create 16 in
  let type_declaration sub (td : Typedtree.type_declaration) =
    Option.iter
      (fun pre ->
        Hashtbl.replace type_homes (Ident.unique_name td.typ_id)
          (pre @ [ td.typ_name.txt ]))
      !prefix;
    default_iterator.type_declaration sub td
  in
  let read_field env (lbl : Types.label_description) =
    let _, ty = expand ctx env lbl.lbl_res in
    match Types.get_desc ty with
    | Tconstr (p, _, _) ->
        let ty_comps =
          match p with
          | Pident id -> Hashtbl.find_opt type_homes (Ident.unique_name id)
          | _ -> Some (resolve p)
        in
        Option.iter (fun c -> emit (Value (c @ [ lbl.lbl_name ]))) ty_comps
    | _ -> ()
  in
  let pat : type k. iterator -> k Typedtree.general_pattern -> unit =
   fun sub p ->
    (match p.pat_desc with
    | Tpat_record (fields, _) ->
        List.iter (fun (_, lbl, _) -> read_field p.pat_env lbl) fields
    | _ -> ());
    default_iterator.pat sub p
  in
  let expr sub (e : Typedtree.expression) =
    match e.exp_desc with
    | Texp_ident (p, _, _) -> emit (Value (resolve p))
    | Texp_field (r, _, lbl) ->
        read_field e.exp_env lbl;
        sub.expr sub r
    | Texp_letmodule (Some id, { txt = Some name; _ }, _, me, body) ->
        within None (fun () ->
            bind_module id name me (fun () -> sub.module_expr sub me));
        sub.expr sub body
    | _ -> default_iterator.expr sub e
  in
  let open_declaration sub (od : Typedtree.open_declaration) =
    if alias_target od.open_expr = None then
      default_iterator.open_declaration sub od
  in
  let it =
    { default_iterator with module_binding; module_expr; structure_item; expr;
      pat; type_declaration; open_declaration }
  in
  it.structure it str;
  !uses

(* What a unit's interface exports, submodule signatures included: each
   value (U001) and each field of a record type (U002), with its key,
   attributes and location. *)
let rec exported prefix (sg : Typedtree.signature) acc =
  List.fold_left
    (fun acc (item : Typedtree.signature_item) ->
      match item.sig_desc with
      | Tsig_value vd ->
          ("U001", prefix @ [ vd.val_name.txt ], vd.val_attributes, vd.val_loc)
          :: acc
      | Tsig_type (_, decls) ->
          List.fold_left
            (fun acc (td : Typedtree.type_declaration) ->
              match td.typ_kind with
              | Ttype_record lds ->
                  List.fold_left
                    (fun acc (ld : Typedtree.label_declaration) ->
                      ( "U002",
                        prefix @ [ td.typ_name.txt; ld.ld_name.txt ],
                        ld.ld_attributes,
                        ld.ld_loc )
                      :: acc)
                    acc lds
              | _ -> acc)
            acc decls
      | Tsig_module
          { md_name = { txt = Some name; _ };
            md_type = { mty_desc = Tmty_signature sg; _ }; _ } ->
          exported (prefix @ [ name ]) sg acc
      | _ -> acc)
    acc sg.sig_items

let unit_set u = function
  | None -> Some (SS.singleton u)
  | Some s -> Some (SS.add u s)

(* Resolves every unit's raw uses and returns [referenced unit key]:
   whether a unit other than [unit] names [key] or uses a module that
   contains it as a whole. *)
let resolve_uses (per_unit : (string * use list) list) =
  let aliases, includes =
    List.fold_left
      (fun acc (_, uses) ->
        List.fold_left
          (fun (al, inc) -> function
            | Alias (a, b) when a <> b -> (KM.add a b al, inc)
            | Include (a, b) ->
                let add l = Some (b :: Option.value l ~default:[]) in
                (al, KM.update a add inc)
            | _ -> (al, inc))
          acc uses)
      (KM.empty, KM.empty) per_unit
  in
  let take n l = List.filteri (fun i _ -> i < n) l in
  (* Rewrite the longest prefix that is an alias, until none is; the
     depth bound stops an alias cycle. *)
  let rec canon depth m =
    let rec longest n =
      if n = 0 then None
      else
        match KM.find_opt (take n m) aliases with
        | Some target -> Some (target @ List.filteri (fun i _ -> i >= n) m)
        | None -> longest (n - 1)
    in
    match longest (List.length m) with
    | Some m' when depth < 16 -> canon (depth + 1) m'
    | _ -> m
  in
  let rec modules depth m =
    let m = canon 0 m in
    m
    :: (if depth >= 16 then []
        else
          List.concat_map (modules (depth + 1))
            (Option.value (KM.find_opt m includes) ~default:[]))
  in
  let split_last l =
    match List.rev l with v :: rm -> Some (List.rev rm, v) | [] -> None
  in
  let values, wholes =
    List.fold_left
      (fun acc (u, uses) ->
        List.fold_left
          (fun (vs, ws) -> function
            | Value comps -> (
                match split_last comps with
                | Some (m, v) ->
                    ( List.fold_left
                        (fun vs m -> KM.update (m @ [ v ]) (unit_set u) vs)
                        vs (modules 0 m),
                      ws )
                | None -> (vs, ws))
            | Whole m ->
                let add ws m = KM.update m (unit_set u) ws in
                (vs, List.fold_left add ws (modules 0 m))
            | Alias _ | Include _ -> (vs, ws))
          acc uses)
      (KM.empty, KM.empty) per_unit
  in
  let other u = function
    | None -> false
    | Some s -> not (SS.is_empty (SS.remove u s))
  in
  fun unit key ->
    other unit (KM.find_opt key values)
    || List.exists
         (fun n -> other unit (KM.find_opt (take n key) wholes))
         (List.init (List.length key - 1) (fun i -> i + 1))

let check_exports ctx referenced cmti =
  match Cmt_format.read_cmt cmti with
  | exception _ -> ()
  | { cmt_annots = Interface sg; cmt_modname; _ } ->
      let unit_comps = split_components cmt_modname in
      List.iter
        (fun (rule, key, attrs, loc) ->
          let frames = frames_of_attributes ctx attrs in
          push_frames ctx frames;
          let name = String.concat "." key in
          (match rule with
          | "U001" ->
              if not (referenced cmt_modname key || allowed ctx "U001") then
                add_finding ctx ~rule ~loc
                  (Printf.sprintf
                     "%s is exported but no other compilation unit \
                      references it; delete it (and its implementation if \
                      nothing else uses it) or justify with [@@lint.allow \
                      \"U001 ...\"]"
                     name)
          | _ ->
              (* Any unit's read counts, the record's own module too. *)
              if not (referenced "" key || allowed ctx "U002") then
                add_finding ctx ~rule ~loc
                  (Printf.sprintf
                     "record field %s is exported but no unit reads it \
                      (by field access or pattern); delete it or justify \
                      with [@lint.allow \"U002 ...\"]"
                     name));
          pop_frames ctx frames)
        (List.rev (exported unit_comps sg []))
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* cmt loading and the driver                                         *)

let rec find_under ext acc path =
  if not (Sys.file_exists path) then acc
  else if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort String.compare
    |> List.fold_left
         (fun acc entry -> find_under ext acc (Filename.concat path entry))
         acc
  else if Filename.check_suffix path ext then path :: acc
  else acc

let find ext roots =
  List.fold_left (find_under ext) [] roots |> List.sort_uniq String.compare

(* Load-path entries recorded in a cmt are as the compiler saw them —
   often relative to the build root.  The lint may run from the build
   root (the @lint alias) or a subdirectory (the test suite), so resolve
   each entry against a few candidate bases and keep what exists. *)
let resolve_loadpath_entry entry =
  if Filename.is_relative entry then
    List.find_opt Sys.file_exists
      [
        entry;
        Filename.concat ".." entry;
        Filename.concat (Filename.concat ".." "..") entry;
      ]
  else if Sys.file_exists entry then Some entry
  else None

let init_load_path cmts =
  let dirs =
    List.fold_left
      (fun acc cmt ->
        let acc = SS.add (Filename.dirname cmt) acc in
        match Cmt_format.read_cmt cmt with
        | exception _ -> acc
        | infos ->
            List.fold_left
              (fun acc entry ->
                match resolve_loadpath_entry entry with
                | Some d -> SS.add d acc
                | None -> acc)
              acc infos.cmt_loadpath)
      SS.empty cmts
  in
  let dirs = Config.standard_library :: SS.elements dirs in
  Load_path.init ~auto_include:Load_path.no_auto_include dirs;
  Envaux.reset_cache ()

let analyze_structure ctx (str : Typedtree.structure) =
  let it = iterator ctx in
  it.structure it str

(* Lints the implementations under [roots]; U001 then checks the values
   their interfaces export against the uses in [roots] and [refs]. *)
let run_roots ?(refs = []) roots =
  let cmts = find ".cmt" roots in
  let ref_cmts =
    List.filter (fun c -> not (List.mem c cmts)) (find ".cmt" refs)
  in
  init_load_path (cmts @ ref_cmts);
  let ctx =
    {
      findings = [];
      suppressions = [];
      stack = [];
      reply_arms = [];
      fallback_env = Env.empty;
    }
  in
  let scanned = ref 0 in
  let uses = ref [] in
  let read ~lint cmt =
    match Cmt_format.read_cmt cmt with
    | exception _ -> ()
    | infos -> (
        match infos.cmt_annots with
        | Implementation str ->
            ctx.fallback_env <-
              (try Envaux.env_of_only_summary infos.cmt_initial_env
               with _ -> Env.empty);
            if lint then begin
              incr scanned;
              ctx.reply_arms <- [];
              analyze_structure ctx str
            end;
            let unit_comps = split_components infos.cmt_modname in
            let u = collect_uses ctx ~unit_comps str in
            uses := (infos.cmt_modname, u) :: !uses
        | _ -> ())
  in
  List.iter (read ~lint:true) cmts;
  List.iter (read ~lint:false) ref_cmts;
  List.iter (check_exports ctx (resolve_uses !uses)) (find ".cmti" roots);
  Diagnostic.sorted_report ~files_scanned:!scanned ~findings:ctx.findings
    ~suppressions:ctx.suppressions
