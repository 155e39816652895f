(* Order statistics over pass samples, and the regression verdict of
   one metric between two runs. *)

(* Position (1-based) of the nearest-rank [p]-th percentile among [n]
   sorted samples: the smallest rank with at least p% of the samples at
   or below it. Integer arithmetic, so p90 of 100 samples is rank 90
   exactly. *)
let rank ~p n = max 1 ((p * n + 99) / 100)

let percentile ~p xs =
  match List.sort compare xs with
  | [] -> invalid_arg "Pstats.percentile: no samples"
  | sorted -> List.nth sorted (rank ~p (List.length sorted) - 1)

let median xs = percentile ~p:50 xs

(* Samples strictly above the [p]-th percentile's rank. A tail
   percentile is only reported as such with at least ten of them. *)
let beyond ~p n = n - rank ~p n
let reportable ~p n = beyond ~p n >= 10

type better = Lower | Higher
type verdict = Better | Worse | Within

let better_of_string = function
  | "lower" -> Lower
  | "higher" -> Higher
  | s -> invalid_arg ("Pstats.better_of_string: " ^ s)

let verdict_name = function
  | Better -> "better"
  | Worse -> "worse"
  | Within -> "within bound"

(* [bound] is the share of [base] by which [cur] may move either way
   before it counts as a change; a move of exactly [bound] is within it.
   The slack absorbs the rounding of the division, so that 2.0 -> 2.2
   under a 10% bound reads as within. *)
let verdict ~better ~bound ~base ~cur =
  let delta =
    match better with Lower -> cur -. base | Higher -> base -. cur
  in
  let worse_by =
    if base <> 0.0 then delta /. Float.abs base
    else if delta = 0.0 then 0.0
    else if delta > 0.0 then infinity
    else neg_infinity
  in
  let slack = 1e-9 in
  if worse_by > bound +. slack then Worse
  else if worse_by < -.bound -. slack then Better
  else Within
