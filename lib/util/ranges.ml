type t = Interval.t list

let single r = [ r ]

(* [x] starts at or after [cur]: extend [cur] over it when they overlap
   or touch, else close [cur] and start from [x]. *)
let rec merge acc (cur : Interval.t) = function
  | [] -> List.rev (cur :: acc)
  | (x : Interval.t) :: rest ->
      if x.lo > cur.hi then merge (cur :: acc) x rest
      else if x.hi <= cur.hi then merge acc cur rest
      else merge acc (Interval.hull cur x) rest

let of_sorted = function first :: rest -> merge [] first rest | [] -> []

let of_list = function
  | [] -> invalid_arg "Ranges.of_list: empty range list"
  | [ _ ] as l -> l
  | l -> of_sorted (List.sort Interval.compare l)

let union a b = of_sorted (List.merge Interval.compare a b)

let rec overlaps a b =
  match (a, b) with
  | [], _ | _, [] -> false
  | (x : Interval.t) :: xs, (y : Interval.t) :: ys ->
      if Interval.overlaps x y then true
      else if x.hi <= y.lo then overlaps xs b
      else overlaps a ys

let rec last = function [ r ] -> r | _ :: l -> last l | [] -> assert false

let hull = function
  | [ r ] -> r
  | (first : Interval.t) :: rest -> Interval.v ~lo:first.lo ~hi:(last rest).hi
  | [] -> assert false

(* A range of [b] lies in the union of [a] only if it lies in one range
   of [a]: the ranges of [a] neither overlap nor touch, so a gap
   separates each from the next. *)
let rec covers a b =
  match (a, b) with
  | _, [] -> true
  | [], _ :: _ -> false
  | (x : Interval.t) :: a', (y : Interval.t) :: b' ->
      if x.hi <= y.lo then covers a' b
      else Interval.contains x y && covers a b'

let pp ppf ranges =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
    Interval.pp ppf ranges
