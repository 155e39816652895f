(** Statistical search over a pruned space — the paper's announced future
    work ("the plan is to incorporate statistical search methods to
    address the multidimensional search space growth", Section XII),
    implemented here as an extension.

    Instead of enumerating every surviving point, these methods draw
    candidates from the space's feasible-set diagram ({!Feasible}):
    every draw is a survivor, uniform over the pruned space, and a
    hill-climbing move lands on the nearest survivor, so no draw or move
    can fail on however sparse a space. The diagram must hold the
    plan's feasible set over the plan's loop order (built from the plan
    or from its propagated form); the objective receives the plan's full
    lookup, derived variables included. *)

open Beast_core

val random_search :
  ?rng:Random.State.t ->
  budget:int ->
  objective:(Expr.lookup -> float) ->
  Plan.t ->
  Feasible.t ->
  Tuner.candidate option
(** Best of [budget] uniform draws of {!Feasible.sample}; [None] only
    for an empty set.
    @raise Invalid_argument when the diagram's layers are not the
    plan's loops. *)

val hill_climb :
  ?rng:Random.State.t ->
  ?restarts:int ->
  ?steps:int ->
  objective:(Expr.lookup -> float) ->
  Plan.t ->
  Feasible.t ->
  Tuner.candidate option
(** Stochastic hill climbing: start from a {!Feasible.sample} draw;
    repeatedly nudge one layer's value by [max 1 (|v|/8)] up or down
    and move to {!Feasible.nearest} of the nudged point; accept
    improvements. [restarts] (default 5) independent climbs of [steps]
    (default 200) moves each; returns the best point seen, [None] only
    for an empty set.
    @raise Invalid_argument as {!random_search}. *)

val evaluations : unit -> int
(** Number of objective evaluations since the last {!reset_counters} —
    lets examples compare search cost against exhaustive sweeps. *)

val reset_counters : unit -> unit
