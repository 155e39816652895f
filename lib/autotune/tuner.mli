(** The autotuning pipeline of Section I: "the variants that pass the
    pruning process are compiled, run and benchmarked, and the best
    performers are identified". Enumeration and pruning run through the
    engines of {!Beast_core}; benchmarking is the caller's objective
    function (for GPU kernels, the {!Beast_gpu} performance model or
    simulator standing in for the physical card). *)

open Beast_core

type candidate = {
  score : float;
  bindings : (string * Value.t) list;  (** iterators, in loop order *)
}

type result = {
  best : candidate option;
  top : candidate list;  (** best-first, at most [top_n] *)
  evaluated : int;  (** survivors benchmarked successfully *)
  failed : int;
      (** survivors skipped because the objective kept raising or timing
          out through all retries *)
  stats : Engine.stats;  (** enumeration/pruning statistics *)
  elapsed_s : float;
}

val tune :
  ?engine:(module Engine_intf.S) ->
  ?top_n:int ->
  ?timeout_s:float ->
  ?retries:int ->
  ?backoff_s:float ->
  objective:(Expr.lookup -> float) ->
  Space.t ->
  result
(** Sweep the space, score every survivor, keep the [top_n] (default 10)
    best. The engine is any {!Engine_registry} module (default
    {!Engine_registry.staged}); with parallel engines the objective is
    called concurrently (invocations serialized by the scheduler).

    A raising objective no longer wedges the campaign: each failure is
    retried up to [retries] times (default 1) with exponential backoff
    starting at [backoff_s] seconds (default 0.05), then the
    configuration is skipped and counted in [result.failed].
    [timeout_s] additionally bounds each benchmark call with a
    SIGALRM-based wall-clock guard; a timed-out call counts as a
    failure. The guard is reliable with the sequential engines; under
    the parallel scheduler signal delivery to a worker domain is
    best-effort, so pair [timeout_s] with a sequential engine.

    @raise Plan.Error if the space does not plan.
    @raise Invalid_argument on negative [retries] or [backoff_s]. *)

val improvement : result -> baseline:float -> float option
(** best score / baseline, the "Improvement" column of Table I. *)

val pp_result : ?peak:float -> Format.formatter -> result -> unit
(** Human-readable report; [peak] adds a %-of-peak column (Table I's
    GEMM row reports "80% of peak"). Mentions failed benchmarks only
    when there were any. *)

(** {1 Multi-objective tuning}

    The paper's reference [4] explored performance/energy trade-offs —
    "two objective functions at once". [pareto] sweeps once, scores every
    survivor under both objectives and keeps the non-dominated front. *)

type bi_candidate = {
  bi_scores : float * float;
  bi_bindings : (string * Value.t) list;
}

val pareto :
  ?engine:(module Engine_intf.S) ->
  ?max_front:int ->
  objectives:(Expr.lookup -> float) * (Expr.lookup -> float) ->
  Space.t ->
  bi_candidate list
(** The Pareto-optimal survivors, sorted by descending first objective.
    Both objectives are maximized. [max_front] (default 64) caps the
    retained front size (the extremes are always kept). *)
