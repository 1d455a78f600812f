module Det_random = Ccpfs_util.Det_random

type process =
  | Constant of float
  | Poisson of float
  | Mmpp of { rate0 : float; rate1 : float; dwell0 : float; dwell1 : float }

let validate = function
  | Constant r | Poisson r ->
      if not (r > 0. && Float.is_finite r) then
        invalid_arg "Arrivals: rate must be positive and finite"
  | Mmpp { rate0; rate1; dwell0; dwell1 } ->
      List.iter
        (fun v ->
          if not (v > 0. && Float.is_finite v) then
            invalid_arg "Arrivals: MMPP rates and dwells must be positive")
        [ rate0; rate1; dwell0; dwell1 ]

let mean_rate = function
  | Constant r | Poisson r -> r
  | Mmpp { rate0; rate1; dwell0; dwell1 } ->
      ((dwell0 *. rate0) +. (dwell1 *. rate1)) /. (dwell0 +. dwell1)

let bursty ~rate =
  let dwell = 20. /. rate in
  Mmpp { rate0 = 0.4 *. rate; rate1 = 1.6 *. rate; dwell0 = dwell; dwell1 = dwell }

let of_string ~rate = function
  | "constant" -> Some (Constant rate)
  | "poisson" -> Some (Poisson rate)
  | "mmpp" -> Some (bursty ~rate)
  | _ -> None

let to_string = function
  | Constant _ -> "constant"
  | Poisson _ -> "poisson"
  | Mmpp _ -> "mmpp"

type t = {
  proc : process;
  rng : Det_random.t;
  (* MMPP modulation: the stream's own clock is the running sum of gaps
     handed out; state flips are tracked against that clock. *)
  mutable clock : float; (* sum of all gaps returned so far *)
  mutable st : int; (* current modulation state, 0 or 1 *)
  mutable dwell_end : float; (* clock value at which the current dwell ends *)
  st_time : float array; (* accumulated clock time per state *)
  st_visits : int array; (* dwell periods entered per state *)
}

(* Inverse-CDF exponential draw; 1 - u is in (0, 1] when u is in [0, 1),
   so the log argument never hits 0. *)
let exp_draw rng ~mean = -.log (1. -. Det_random.float rng 1.) *. mean

let create ~seed proc =
  validate proc;
  let rng = Det_random.create ~seed in
  let t =
    {
      proc; rng; clock = 0.; st = 0; dwell_end = infinity;
      st_time = [| 0.; 0. |]; st_visits = [| 1; 0 |];
    }
  in
  (match proc with
  | Mmpp { dwell0; _ } -> t.dwell_end <- exp_draw rng ~mean:dwell0
  | Constant _ | Poisson _ -> ());
  t

let state t = t.st
let state_time t i = t.st_time.(i)
let state_visits t i = t.st_visits.(i)

let mmpp_rate t =
  match t.proc with
  | Mmpp { rate0; rate1; _ } -> if t.st = 0 then rate0 else rate1
  | Constant _ | Poisson _ -> assert false

let mmpp_dwell t =
  match t.proc with
  | Mmpp { dwell0; dwell1; _ } -> if t.st = 0 then dwell0 else dwell1
  | Constant _ | Poisson _ -> assert false

let advance_clock t dt =
  t.st_time.(t.st) <- t.st_time.(t.st) +. dt;
  t.clock <- t.clock +. dt

let next_gap t =
  match t.proc with
  | Constant r -> 1. /. r
  | Poisson r -> exp_draw t.rng ~mean:(1. /. r)
  | Mmpp _ ->
      (* Walk modulation periods until an arrival lands inside one: draw
         the candidate arrival at the current state's rate; if it falls
         past the dwell boundary, discard it (memorylessness of the
         exponential makes the restart in the next state exact), flip
         state, and retry from the boundary. *)
      let start = t.clock in
      let rec hunt () =
        let cand = exp_draw t.rng ~mean:(1. /. mmpp_rate t) in
        if t.clock +. cand <= t.dwell_end then begin
          advance_clock t cand;
          t.clock -. start
        end
        else begin
          advance_clock t (t.dwell_end -. t.clock);
          t.st <- 1 - t.st;
          t.st_visits.(t.st) <- t.st_visits.(t.st) + 1;
          t.dwell_end <- t.clock +. exp_draw t.rng ~mean:(mmpp_dwell t);
          hunt ()
        end
      in
      hunt ()

let times ~seed proc ~n =
  let t = create ~seed proc in
  let a = Array.make n 0. in
  let acc = ref 0. in
  for k = 0 to n - 1 do
    acc := !acc +. next_gap t;
    a.(k) <- !acc
  done;
  a
