(* All floats, so the record is stored flat: updating it allocates
   nothing, and [reserve] runs at every transport hop. *)
type queue = { rate : float; mutable available_at : float; mutable busy : float }

type t = {
  eng : Engine.t;
  q : queue;
  wait_hist : Obs.Metrics.histogram option;
  busy_hist : Obs.Metrics.histogram option;
}

let create eng ?metric ~rate () =
  if rate <= 0. then invalid_arg "Resource.create: rate must be positive";
  let wait_hist, busy_hist =
    match metric with
    | None -> (None, None)
    | Some name ->
        let m = Engine.metrics eng in
        ( Some (Obs.Metrics.histogram m ("resource.wait." ^ name)),
          Some (Obs.Metrics.histogram m ("resource.busy." ^ name)) )
  in
  { eng; q = { rate; available_at = 0.; busy = 0. }; wait_hist; busy_hist }

let reserve t amount =
  if amount < 0. then invalid_arg "Resource.reserve: negative amount";
  let q = t.q in
  if q.rate = infinity || amount = 0. then 0.
  else begin
    let service = amount /. q.rate in
    let now = Engine.now t.eng in
    let start = Float.max now q.available_at in
    q.available_at <- start +. service;
    q.busy <- q.busy +. service;
    (* the registry's switch, tested before the floats are boxed for
       [observe] *)
    if Obs.Metrics.is_enabled (Engine.metrics t.eng) then begin
      (match t.wait_hist with
      | Some h -> Obs.Metrics.observe h (start -. now)
      | None -> ());
      match t.busy_hist with
      | Some h -> Obs.Metrics.observe h service
      | None -> ()
    end;
    q.available_at -. now
  end

let consume t amount = Engine.sleep t.eng (reserve t amount)

let busy_seconds t = t.q.busy
let backlog_until t = t.q.available_at
let rate t = t.q.rate
