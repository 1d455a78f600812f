type ev = {
  ph : char;
  name : string;
  cat : string;
  ts : float;
  dur : float;
  tid : int;
  args : (string * Json.t) list;
}

type sink = {
  on : bool;
  s_pid : int;
  s_label : string;
  mutable evs : ev list; (* newest first *)
  mutable n : int;
}

let null = { on = false; s_pid = 0; s_label = ""; evs = []; n = 0 }

let make ?(pid = 0) ?(label = "") () =
  { on = true; s_pid = pid; s_label = label; evs = []; n = 0 }

let enabled s = s.on
let label s = s.s_label

let emit s ev =
  if s.on then begin
    s.evs <- ev :: s.evs;
    s.n <- s.n + 1
  end

let begin_span s ~ts ~tid ?(cat = "") ?(args = []) name =
  emit s { ph = 'B'; name; cat; ts; dur = 0.; tid; args }

let end_span s ~ts ~tid name =
  (* 'E' events need no name in the format, but carrying it makes the
     matched-pair validation in tests/CI purely textual. *)
  emit s { ph = 'E'; name; cat = ""; ts; dur = 0.; tid; args = [] }

let complete s ~ts ~dur ~tid ?(cat = "") ?(args = []) name =
  emit s { ph = 'X'; name; cat; ts; dur; tid; args }

let instant s ~ts ~tid ?(cat = "") ?(args = []) name =
  emit s { ph = 'i'; name; cat; ts; dur = 0.; tid; args }

let thread_name s ~tid name =
  emit s
    {
      ph = 'M'; name = "thread_name"; cat = ""; ts = 0.; dur = 0.; tid;
      args = [ ("name", Json.Str name) ];
    }

let events s = List.rev s.evs
let num_events s = s.n

let usec t = Json.Float (t *. 1e6)

let ev_json ~pid (e : ev) =
  let base =
    [ ("name", Json.Str e.name); ("ph", Json.Str (String.make 1 e.ph));
      ("ts", usec e.ts); ("pid", Json.Int pid); ("tid", Json.Int e.tid) ]
  in
  let base = if e.cat = "" then base else base @ [ ("cat", Json.Str e.cat) ] in
  let base = if e.ph = 'X' then base @ [ ("dur", usec e.dur) ] else base in
  let base =
    (* Instants scoped to the thread track, the viewer's default. *)
    if e.ph = 'i' then base @ [ ("s", Json.Str "t") ] else base
  in
  let base =
    if List.is_empty e.args then base
    else base @ [ ("args", Json.Obj e.args) ]
  in
  Json.Obj base

let to_json sinks =
  let evs =
    List.concat_map
      (fun s ->
        let meta =
          if s.s_label = "" then []
          else
            [ Json.Obj
                [ ("name", Json.Str "process_name"); ("ph", Json.Str "M");
                  ("ts", usec 0.); ("pid", Json.Int s.s_pid);
                  ("tid", Json.Int 0);
                  ("args", Json.Obj [ ("name", Json.Str s.s_label) ]) ] ]
        in
        meta @ List.rev_map (fun e -> ev_json ~pid:s.s_pid e) s.evs)
      sinks
  in
  Json.Obj
    [ ("traceEvents", Json.List evs); ("displayTimeUnit", Json.Str "ms") ]
