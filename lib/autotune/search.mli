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
  budget:int ->
  objective:(Expr.lookup -> float) ->
  Plan.t ->
  Feasible.t ->
  Tuner.candidate option
(** Stochastic hill climbing that spends exactly [budget] objective
    evaluations on a non-empty set (none when [budget <= 0]). A climb
    starts from a {!Feasible.sample} draw, repeatedly nudges one layer's
    value by [max 1 (|v|/8)] up or down, moves to {!Feasible.nearest}
    of the nudged point and accepts improvements. It stalls after
    [4 * layers] nudges in a row improve nothing, and the search then
    restarts from a fresh draw. A nudge that lands back on the current
    point is not evaluated. Returns the best point seen, [None] for an
    empty set or a budget below 1.
    @raise Invalid_argument as {!random_search}. *)
