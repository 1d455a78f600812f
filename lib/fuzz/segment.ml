open Printf

type op =
  | Write of { block : int; blocks : int }
  | Read of { block : int; blocks : int }
  | Append of { blocks : int }
  | Truncate of { blocks : int }

let remove_nth l n = List.filteri (fun i _ -> i <> n) l

let ml_float f =
  if f = infinity then "infinity"
  else if f = neg_infinity then "neg_infinity"
  else if Float.is_nan f then "nan"
  else sprintf "%h" f

let ml_option f = function Some x -> "Some " ^ f x | None -> "None"
let ml_pair (srv, d) = sprintf "(%d, %s)" srv (ml_float d)
let ml_list f l = "[ " ^ String.concat "; " (List.map f l) ^ " ]"
let json_option f = function Some x -> f x | None -> Obs.Json.Null

(* ---- Phase ---- *)

type phase = {
  ops : op list array;
  crash_server : int option;
  crash_mid : (int * float) option;
}

let phase_op_count p =
  Array.fold_left (fun acc l -> acc + List.length l) 0 p.ops

let pp_op ppf = function
  | Write { block; blocks } -> Format.fprintf ppf "write[%d,+%d)" block blocks
  | Read { block; blocks } -> Format.fprintf ppf "read[%d,+%d)" block blocks
  | Append { blocks } -> Format.fprintf ppf "append(+%d)" blocks
  | Truncate { blocks } -> Format.fprintf ppf "truncate(->%d)" blocks

let pp_phase ppf i p =
  Format.fprintf ppf "  phase %d%s%s:@," i
    (match p.crash_mid with
    | Some (srv, d) -> sprintf " (crash server %d at +%gs)" srv d
    | None -> "")
    (match p.crash_server with
    | Some srv -> sprintf " (then crash server %d)" srv
    | None -> "");
  Array.iteri
    (fun ci ops ->
      if ops <> [] then
        Format.fprintf ppf "    client %d: %a@," ci
          (Format.pp_print_list
             ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
             pp_op)
          ops)
    p.ops

let op_to_json op =
  let open Obs.Json in
  match op with
  | Write { block; blocks } ->
      Obj [ ("op", Str "write"); ("block", Int block); ("blocks", Int blocks) ]
  | Read { block; blocks } ->
      Obj [ ("op", Str "read"); ("block", Int block); ("blocks", Int blocks) ]
  | Append { blocks } -> Obj [ ("op", Str "append"); ("blocks", Int blocks) ]
  | Truncate { blocks } -> Obj [ ("op", Str "truncate"); ("blocks", Int blocks) ]

let phase_to_json p =
  let open Obs.Json in
  let list f l = List (List.map f l) in
  [
    ("ops", list (list op_to_json) (Array.to_list p.ops));
    ("crash_server", json_option (fun s -> Int s) p.crash_server);
    ( "crash_mid",
      json_option
        (fun (srv, d) -> Obj [ ("server", Int srv); ("after", Float d) ])
        p.crash_mid );
  ]

let ml_op = function
  | Write { block; blocks } ->
      sprintf "Write { block = %d; blocks = %d }" block blocks
  | Read { block; blocks } ->
      sprintf "Read { block = %d; blocks = %d }" block blocks
  | Append { blocks } -> sprintf "Append { blocks = %d }" blocks
  | Truncate { blocks } -> sprintf "Truncate { blocks = %d }" blocks

let phase_to_ml p =
  sprintf "{ ops =\n      [|\n%s      |];\n    crash_server = %s; crash_mid = %s }"
    (String.concat ""
       (List.map
          (fun ops -> sprintf "        %s;\n" (ml_list ml_op ops))
          (Array.to_list p.ops)))
    (ml_option string_of_int p.crash_server)
    (ml_option ml_pair p.crash_mid)

(* Halves, then single ops, of each client's list; then each crash. *)
let phase_smaller p =
  let with_ops ci l =
    let ops = Array.copy p.ops in
    ops.(ci) <- l;
    { p with ops }
  in
  List.concat
    (List.mapi
       (fun ci l ->
         let len = List.length l in
         let half = len / 2 in
         (if len >= 2 then
            [
              with_ops ci (List.filteri (fun i _ -> i < half) l);
              with_ops ci (List.filteri (fun i _ -> i >= half) l);
            ]
          else [])
         @ List.init len (fun oi -> with_ops ci (remove_nth l oi)))
       (Array.to_list p.ops))
  @ (if Option.is_some p.crash_server then [ { p with crash_server = None } ]
     else [])
  @ if Option.is_some p.crash_mid then [ { p with crash_mid = None } ] else []

(* ---- Load ---- *)

type churn = { ch_at : float; ch_client : int; ch_up : bool }

type load = {
  l_rate : float;
  l_process : int;
  l_requests : int;
  l_cap : int;
  l_churn : churn list;
}

let process_name l =
  match l.l_process mod 3 with 0 -> "const" | 1 -> "poisson" | _ -> "mmpp"

let pp_load ppf l =
  Format.fprintf ppf "  load: %s, %g req/s, %d request(s), cap %d@,"
    (process_name l) l.l_rate l.l_requests l.l_cap;
  List.iter
    (fun ch ->
      Format.fprintf ppf "    churn: client %d %s at +%gs@," ch.ch_client
        (if ch.ch_up then "up" else "down")
        ch.ch_at)
    l.l_churn

let load_to_json l =
  let open Obs.Json in
  [
    ("rate", Float l.l_rate);
    ("process", Int l.l_process);
    ("requests", Int l.l_requests);
    ("cap", Int l.l_cap);
    ( "churn",
      List
        (List.map
           (fun ch ->
             Obj [ ("at", Float ch.ch_at); ("client", Int ch.ch_client); ("up", Bool ch.ch_up) ])
           l.l_churn) );
  ]

let load_to_ml l =
  sprintf
    "{ l_rate = %s; l_process = %d; l_requests = %d; l_cap = %d;\n\
    \    l_churn = %s }"
    (ml_float l.l_rate) l.l_process l.l_requests l.l_cap
    (ml_list
       (fun ch ->
         sprintf "{ ch_at = %s; ch_client = %d; ch_up = %b }"
           (ml_float ch.ch_at) ch.ch_client ch.ch_up)
       l.l_churn)

let load_smaller l =
  (match l.l_churn with [] -> [] | _ :: _ -> [ { l with l_churn = [] } ])
  @ if l.l_requests > 4 then [ { l with l_requests = l.l_requests / 2 } ]
    else []

(* ---- Migration ---- *)

type migration = { mg_stripe : int; mg_dst : int; mg_after : float }

let pp_migration ppf m =
  Format.fprintf ppf "  migration: stripe %d -> server %d at +%gs@,"
    m.mg_stripe m.mg_dst m.mg_after

let migration_to_json m =
  let open Obs.Json in
  [ ("stripe", Int m.mg_stripe); ("dst", Int m.mg_dst); ("after", Float m.mg_after) ]

let migration_to_ml m =
  sprintf "{ mg_stripe = %d; mg_dst = %d; mg_after = %s }" m.mg_stripe m.mg_dst
    (ml_float m.mg_after)

(* ---- Partition ---- *)

type partition = {
  pt_server : int;
  pt_at : float;
  pt_dur : float;
  pt_loss : float;
  pt_dup : float;
}

let pp_partition ppf p =
  Format.fprintf ppf "  partition: server %d at +%gs for %gs (loss %g, dup %g)@,"
    p.pt_server p.pt_at p.pt_dur p.pt_loss p.pt_dup

let partition_to_json p =
  let open Obs.Json in
  [
    ("server", Int p.pt_server);
    ("at", Float p.pt_at);
    ("dur", Float p.pt_dur);
    ("loss", Float p.pt_loss);
    ("dup", Float p.pt_dup);
  ]

let partition_to_ml p =
  sprintf
    "{ pt_server = %d; pt_at = %s; pt_dur = %s;\n\
    \    pt_loss = %s; pt_dup = %s }"
    p.pt_server (ml_float p.pt_at) (ml_float p.pt_dur) (ml_float p.pt_loss)
    (ml_float p.pt_dup)

(* ---- Double failure ---- *)

type double_failure = { df_server : int; df_after : float }

let pp_double_failure ppf d =
  Format.fprintf ppf
    "  double failure: also crash server %d +%gs after each mid-crash@,"
    d.df_server d.df_after

let double_failure_to_json d =
  let open Obs.Json in
  [ ("server", Int d.df_server); ("after", Float d.df_after) ]

let double_failure_to_ml d =
  sprintf "{ df_server = %d; df_after = %s }" d.df_server (ml_float d.df_after)

(* ---- The segment ---- *)

type t =
  | Phase of phase
  | Load of load
  | Migration of migration
  | Partition of partition
  | Double_failure of double_failure

type kind = [ `Phase | `Load | `Migration | `Partition | `Double_failure ]

let kinds = [ `Phase; `Load; `Migration; `Partition; `Double_failure ]

let kind = function
  | Phase _ -> `Phase
  | Load _ -> `Load
  | Migration _ -> `Migration
  | Partition _ -> `Partition
  | Double_failure _ -> `Double_failure

let is k s = kind s = k

let kind_name = function
  | `Phase -> "phase"
  | `Load -> "load"
  | `Migration -> "migration"
  | `Partition -> "partition"
  | `Double_failure -> "double_failure"

let op_count = function Phase p -> phase_op_count p | _ -> 0

let online = function
  | Phase p -> Option.is_some p.crash_mid
  | Partition _ -> true
  | Load _ | Migration _ | Double_failure _ -> false

let drop_client i = function
  | Phase p -> Phase { p with ops = Array.of_list (remove_nth (Array.to_list p.ops) i) }
  | (Load _ | Migration _ | Partition _ | Double_failure _) as s -> s

let numbered segs =
  let rec go before = function
    | [] -> []
    | s :: rest ->
        (List.length (List.filter (is (kind s)) before), s) :: go (s :: before) rest
  in
  go [] segs

(* One kind's part of the summary line, from all its segments. *)
let kind_summary (k : kind) segs =
  let mine = List.filter (is k) segs in
  let n = List.length mine in
  let count p = List.length (List.filter p mine) in
  match k with
  | `Phase ->
      sprintf "%d phase(s), %d op(s), %d crash(es), %d mid-crash(es)" n
        (List.fold_left (fun acc s -> acc + op_count s) 0 mine)
        (count (function Phase { crash_server = Some _; _ } -> true | _ -> false))
        (count (function Phase { crash_mid = Some _; _ } -> true | _ -> false))
  | `Load ->
      String.concat ""
        (List.filter_map
           (function
             | Load l ->
                 Some
                   (sprintf ", load(%s %.3g/s x%d cap %d churn %d)"
                      (process_name l) l.l_rate l.l_requests l.l_cap
                      (List.length l.l_churn))
             | _ -> None)
           mine)
  | _ when n = 0 -> ""
  | `Migration -> sprintf ", %d migration(s)" n
  | `Partition -> sprintf ", %d partition(s)" n
  | `Double_failure -> ", double-failure"

let summary ~loss_dup ~repl segs =
  let frag k = kind_summary k segs in
  String.concat ""
    [
      frag `Phase; loss_dup; frag `Migration; repl; frag `Partition;
      frag `Double_failure; frag `Load;
    ]

let pp ppf (i, s) =
  match s with
  | Phase p -> pp_phase ppf i p
  | Load l -> pp_load ppf l
  | Migration m -> pp_migration ppf m
  | Partition p -> pp_partition ppf p
  | Double_failure d -> pp_double_failure ppf d

let to_json s =
  let fields =
    match s with
    | Phase p -> phase_to_json p
    | Load l -> load_to_json l
    | Migration m -> migration_to_json m
    | Partition p -> partition_to_json p
    | Double_failure d -> double_failure_to_json d
  in
  Obs.Json.Obj (("kind", Obs.Json.Str (kind_name (kind s))) :: fields)

let to_ml = function
  | Phase p -> "Phase\n  " ^ phase_to_ml p
  | Load l -> "Load\n  " ^ load_to_ml l
  | Migration m -> "Migration " ^ migration_to_ml m
  | Partition p -> "Partition\n  " ^ partition_to_ml p
  | Double_failure d -> "Double_failure " ^ double_failure_to_ml d

let smaller = function
  | Phase p -> List.map (fun p -> Phase p) (phase_smaller p)
  | Load l -> List.map (fun l -> Load l) (load_smaller l)
  | Migration _ | Partition _ | Double_failure _ -> []
