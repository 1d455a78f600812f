type t = {
  mutable on : bool;
  counters : (string, counter) Hashtbl.t;
  gauges : (string, gauge) Hashtbl.t;
  histograms : (string, histogram) Hashtbl.t;
}

and counter = { c_reg : t; mutable c_v : int }
and gauge = { g_reg : t; mutable g_v : float; mutable g_max : float }

and histogram = {
  h_reg : t;
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
  mutable h_buckets : int array;
      (* 128 power-of-two buckets, allocated at the first observation:
         most instruments (an endpoint's latency, one per client) are
         never observed, and an empty array reads as all-zero buckets *)
}

let n_buckets = 128
let bucket_bias = 64

let create () =
  {
    on = false;
    counters = Hashtbl.create 16;
    gauges = Hashtbl.create 16;
    histograms = Hashtbl.create 16;
  }

let enable t = t.on <- true
let is_enabled t = t.on

let counter t name =
  match Hashtbl.find_opt t.counters name with
  | Some c -> c
  | None ->
      let c = { c_reg = t; c_v = 0 } in
      Hashtbl.add t.counters name c;
      c

let add c n = if c.c_reg.on then c.c_v <- c.c_v + n
let incr c = add c 1
let counter_value c = c.c_v

let gauge t name =
  match Hashtbl.find_opt t.gauges name with
  | Some g -> g
  | None ->
      let g = { g_reg = t; g_v = 0.; g_max = neg_infinity } in
      Hashtbl.add t.gauges name g;
      g

let set_gauge g v =
  if g.g_reg.on then begin
    g.g_v <- v;
    if v > g.g_max then g.g_max <- v
  end

let set_gauge_int g v = if g.g_reg.on then set_gauge g (float_of_int v)
let gauge_value g = g.g_v

let histogram t name =
  match Hashtbl.find_opt t.histograms name with
  | Some h -> h
  | None ->
      let h =
        {
          h_reg = t; h_count = 0; h_sum = 0.; h_min = infinity;
          h_max = neg_infinity; h_buckets = [||];
        }
      in
      Hashtbl.add t.histograms name h;
      h

(* Bucket index of [v]: the unique i with 2^(i-65) <= v < 2^(i-64), i.e.
   upper bound 2^(i-64); frexp gives v = m * 2^e with m in [0.5, 1). *)
let bucket_of v =
  if v <= 0. || not (Float.is_finite v) then 0
  else
    let _, e = Float.frexp v in
    let i = e + bucket_bias in
    if i < 0 then 0 else if i >= n_buckets then n_buckets - 1 else i

let bound_of i = Float.ldexp 1. (i - bucket_bias)

let observe h v =
  if h.h_reg.on then begin
    h.h_count <- h.h_count + 1;
    h.h_sum <- h.h_sum +. v;
    if v < h.h_min then h.h_min <- v;
    if v > h.h_max then h.h_max <- v;
    if Array.length h.h_buckets = 0 then h.h_buckets <- Array.make n_buckets 0;
    let i = bucket_of v in
    h.h_buckets.(i) <- h.h_buckets.(i) + 1
  end

let observe_int h v = if h.h_reg.on then observe h (float_of_int v)
let hist_count h = h.h_count
let hist_sum h = h.h_sum

let hist_buckets h =
  let acc = ref [] in
  for i = Array.length h.h_buckets - 1 downto 0 do
    if h.h_buckets.(i) > 0 then acc := (bound_of i, h.h_buckets.(i)) :: !acc
  done;
  !acc

(* Same ceil-with-tolerance nearest-rank arithmetic as Stats.percentile
   (see the comment there): the tolerance only undoes binary-float noise
   in p/100*n, never skips a genuine rank. *)
let hist_quantile h p =
  if h.h_count = 0 then 0.
  else begin
    let p = Float.max 0. (Float.min 100. p) in
    let x = p /. 100. *. float_of_int h.h_count in
    let rank =
      Stdlib.max 1
        (Stdlib.min h.h_count
           (int_of_float (ceil (x -. (1e-9 +. (1e-12 *. x))))))
    in
    let acc = ref 0 and result = ref 0. and found = ref false in
    for i = 0 to Array.length h.h_buckets - 1 do
      if not !found then begin
        acc := !acc + h.h_buckets.(i);
        if !acc >= rank then begin
          found := true;
          result := bound_of i
        end
      end
    done;
    !result
  end

let sorted_bindings tbl =
  (* obs stays dependency-free (no ccpfs_util here); the raw
     fold is immediately sorted by key below, so order can't leak *)
  (Hashtbl.fold
     [@lint.allow
       "D001 obs is dependency-free by design; the fold result is sorted \
        by key on the next line"])
    (fun k v acc -> (k, v) :: acc)
    tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let to_json t =
  let counters =
    sorted_bindings t.counters |> List.map (fun (k, c) -> (k, Json.Int c.c_v))
  in
  let gauges =
    sorted_bindings t.gauges
    |> List.map (fun (k, g) ->
           ( k,
             Json.Obj
               [ ("last", Json.Float g.g_v);
                 ( "max",
                   if g.g_max = neg_infinity then Json.Null
                   else Json.Float g.g_max ) ] ))
  in
  let histograms =
    sorted_bindings t.histograms
    |> List.map (fun (k, h) ->
           ( k,
             Json.Obj
               [ ("count", Json.Int h.h_count); ("sum", Json.Float h.h_sum);
                 ( "min",
                   if h.h_count = 0 then Json.Null else Json.Float h.h_min );
                 ( "max",
                   if h.h_count = 0 then Json.Null else Json.Float h.h_max );
                 ( "buckets",
                   Json.List
                     (List.map
                        (fun (le, n) ->
                          Json.Obj
                            [ ("le", Json.Float le); ("count", Json.Int n) ])
                        (hist_buckets h)) ) ] ))
  in
  Json.Obj
    [ ("counters", Json.Obj counters); ("gauges", Json.Obj gauges);
      ("histograms", Json.Obj histograms) ]
