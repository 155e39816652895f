(** The tree-walking engine: names resolved through an associative table
    at every access and expression ASTs re-walked on every evaluation —
    deliberately reproducing the cost structure the paper measures for
    Python in Section XI-B ("Python's access to variables is through
    associative array lookup"). This is the baseline the generated-code
    engines are compared against.

    Two variants:
    - [`Naive] evaluates every derived variable and constraint at the
      innermost loop level, like a hand-written scripting enumerator with
      no dependency analysis;
    - [`Hoisted] uses the plan's DAG placement, isolating the benefit of
      hoisting from the benefit of compilation (the ablation of
      DESIGN.md §4).

    {!run} and {!run_plan} share one step walker and one
    {!Engine.Run} record; they differ only in how a derive and a check
    are evaluated and how a loop's values are produced and bound.
    Both raise [Expr.Eval_error "<var>: zero range step"] on a range
    loop whose step evaluates to 0. *)

val run :
  ?on_hit:Engine.on_hit ->
  ?variant:[ `Naive | `Hoisted ] ->
  Space.t ->
  Engine.stats
(** Default variant [`Hoisted]. @raise Plan.Error if planning fails. *)

val run_plan : ?on_hit:Engine.on_hit -> Plan.t -> Engine.stats
(** Tree-walk an existing plan (chunked, sliced or propagated — shapes
    the Space path cannot reconstruct), re-evaluating every expression
    through {!Plan.eval_cexpr} per visit over an integer slot array. The
    Plan-target path of the engine API; the cost model stays
    interpretive, but without the string-keyed environment the Space
    path reproduces. *)
