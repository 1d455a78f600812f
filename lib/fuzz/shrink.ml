let remove_nth l n = List.filteri (fun i _ -> i <> n) l

(* Whole segments first, newest kind first: all of a kind, then each one
   when there are several, then each one's own smaller versions.  A
   failure that survives without the newer kinds is an older, far more
   comprehensible reproduction.  The shape edits follow. *)
let sim_candidates ({ Case.shape = s; segments } : Case.sim) =
  let indexed = List.mapi (fun i seg -> (i, seg)) segments in
  let replace i seg' =
    List.mapi (fun j seg -> if j = i then seg' else seg) segments
  in
  let of_kind k =
    let mine = List.filter (fun (_, seg) -> Segment.is k seg) indexed in
    (match mine with
    | [] -> []
    | _ :: _ -> [ List.filter (fun seg -> not (Segment.is k seg)) segments ])
    @ (match mine with
      | _ :: _ :: _ -> List.map (fun (i, _) -> remove_nth segments i) mine
      | _ -> [])
    @ List.concat_map
        (fun (i, seg) -> List.map (replace i) (Segment.smaller seg))
        mine
  in
  let if_ cond x = if cond then [ x ] else [] in
  List.map
    (fun segments -> { Case.shape = s; segments })
    (List.concat_map of_kind (List.rev Segment.kinds))
  @ (if s.n_clients > 1 then
       List.init s.n_clients (fun i ->
           {
             Case.shape = { s with n_clients = s.n_clients - 1 };
             segments = List.map (Segment.drop_client i) segments;
           })
     else [])
  @ List.map
      (fun shape -> { Case.shape; segments })
      (if_ (s.repl > 0) { s with repl = 0 }
      @ if_ (s.loss > 0. || s.dup > 0.) { s with loss = 0.; dup = 0. }
      @ if_ (s.stripes > 1 || s.n_servers > 1) { s with stripes = 1; n_servers = 1 }
      @ if_ (s.tie_random || s.jitter > 0.)
          { s with tie_random = false; jitter = 0. }
      @ if_
          (s.dirty_min_blocks < 4096 || s.extent_cache_limit < 4096)
          {
            s with
            dirty_min_blocks = 4096;
            dirty_max_blocks = 16384;
            extent_cache_limit = Ccpfs.Config.default.extent_cache_limit;
          })

let candidates (c : Case.t) =
  match c.kind with
  | Case.Analytic a ->
      if a.a_clients > 2 then
        [ { c with kind = Case.Analytic { a with a_clients = 2 } } ]
      else []
  | Case.Sim s ->
      List.map (fun s' -> { c with kind = Case.Sim s' }) (sim_candidates s)

let minimize ?inject ?(budget = 150) case reason =
  let best = ref case and best_reason = ref reason in
  let reruns = ref 0 in
  let improved = ref true in
  while !improved && !reruns < budget do
    improved := false;
    (try
       List.iter
         (fun cand ->
           if !reruns >= budget then raise Exit;
           incr reruns;
           match Exec.catch ?inject cand with
           | Error r ->
               best := cand;
               best_reason := r;
               improved := true;
               raise Exit
           | Ok _ -> ())
         (candidates !best)
     with Exit -> ())
  done;
  (!best, !best_reason, !reruns)
