let with_sim (c : Case.t) s = { c with Case.kind = Case.Sim s }
let remove_nth l n = List.filteri (fun i _ -> i <> n) l

let drop_phase (s : Case.sim) n = { s with phases = remove_nth s.phases n }

let drop_client (s : Case.sim) i =
  {
    s with
    n_clients = s.n_clients - 1;
    phases =
      List.map
        (fun (p : Case.phase) ->
          { p with ops = Array.of_list (remove_nth (Array.to_list p.ops) i) })
        s.phases;
  }

let edit_ops (s : Case.sim) ~phase ~client f =
  {
    s with
    phases =
      List.mapi
        (fun pi (p : Case.phase) ->
          if pi <> phase then p
          else begin
            let ops = Array.copy p.ops in
            ops.(client) <- f ops.(client);
            { p with ops }
          end)
        s.phases;
  }

let candidates (c : Case.t) =
  match c.Case.kind with
  | Case.Analytic a ->
      if a.a_clients > 2 then
        [ { c with kind = Case.Analytic { a with a_clients = 2 } } ]
      else []
  | Case.Sim s ->
      let acc = ref [] in
      let add s' = acc := with_sim c s' :: !acc in
      (* Shed the newest layers first: double failure, then partition
         windows, then replication — a failure that survives without
         them is an ordinary (and far more comprehensible) single-fault,
         unreplicated reproduction. *)
      (match s.dbl with Some _ -> add { s with dbl = None } | None -> ());
      (match s.partitions with
      | [] -> ()
      | ps ->
          add { s with partitions = [] };
          if List.length ps > 1 then
            List.iteri
              (fun pi _ -> add { s with partitions = remove_nth ps pi })
              ps);
      if s.repl > 0 then add { s with repl = 0 };
      (* Then the migrations: the next-newest layer.  All at once, then
         one by one. *)
      (match s.migrations with
      | [] -> ()
      | ms ->
          add { s with migrations = [] };
          if List.length ms > 1 then
            List.iteri (fun mi _ -> add { s with migrations = remove_nth ms mi }) ms);
      (* Then the open-loop load segment: the next-newest layer, and the
         phases alone usually reproduce old failures. *)
      (match s.load with
      | Some l ->
          add { s with load = None };
          if List.length l.l_churn > 0 then
            add { s with load = Some { l with l_churn = [] } };
          if l.l_requests > 4 then
            add { s with load = Some { l with l_requests = l.l_requests / 2 } }
      | None -> ());
      (* Drop whole phases. *)
      if List.length s.phases > 1 then
        List.iteri (fun pi _ -> add (drop_phase s pi)) s.phases;
      (* Drop whole clients. *)
      if s.n_clients > 1 then
        for i = 0 to s.n_clients - 1 do
          add (drop_client s i)
        done;
      (* Halve, then single out, per-client op lists. *)
      List.iteri
        (fun pi (p : Case.phase) ->
          Array.iteri
            (fun ci ops ->
              let len = List.length ops in
              if len >= 2 then begin
                let half = len / 2 in
                add
                  (edit_ops s ~phase:pi ~client:ci (fun l ->
                       List.filteri (fun i _ -> i < half) l));
                add
                  (edit_ops s ~phase:pi ~client:ci (fun l ->
                       List.filteri (fun i _ -> i >= half) l))
              end;
              if len >= 1 then
                for oi = 0 to len - 1 do
                  add (edit_ops s ~phase:pi ~client:ci (fun l -> remove_nth l oi))
                done)
            p.ops)
        s.phases;
      (* Remove crash faults (all at once, then one by one). *)
      if Case.crash_count c > 0 then begin
        add
          {
            s with
            phases =
              List.map
                (fun (p : Case.phase) -> { p with crash_server = None })
                s.phases;
          };
        List.iteri
          (fun pi (p : Case.phase) ->
            if p.crash_server <> None then
              add
                {
                  s with
                  phases =
                    List.mapi
                      (fun i (q : Case.phase) ->
                        if i = pi then { q with crash_server = None } else q)
                      s.phases;
                })
          s.phases
      end;
      (* Remove online (mid-phase) crashes, all at once then one by one. *)
      if Case.mid_crash_count c > 0 then begin
        add
          {
            s with
            phases =
              List.map
                (fun (p : Case.phase) -> { p with crash_mid = None })
                s.phases;
          };
        List.iteri
          (fun pi (p : Case.phase) ->
            if Option.is_some p.crash_mid then
              add
                {
                  s with
                  phases =
                    List.mapi
                      (fun i (q : Case.phase) ->
                        if i = pi then { q with crash_mid = None } else q)
                      s.phases;
                })
          s.phases
      end;
      (* Remove the message faults. *)
      if s.loss > 0. || s.dup > 0. then add { s with loss = 0.; dup = 0. };
      (* Collapse the layout. *)
      if s.stripes > 1 || s.n_servers > 1 then
        add { s with stripes = 1; n_servers = 1 };
      (* Remove the legal nondeterminism. *)
      if s.tie_random || s.jitter > 0. then
        add { s with tie_random = false; jitter = 0. };
      (* Relax the tight cache limits. *)
      if s.dirty_min_blocks < 4096 || s.extent_cache_limit < 4096 then
        add
          {
            s with
            dirty_min_blocks = 4096;
            dirty_max_blocks = 16384;
            extent_cache_limit = Ccpfs.Config.default.extent_cache_limit;
          };
      List.rev !acc

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
