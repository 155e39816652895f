(** Pruning statistics and funnel reports.

    Section VI observes that constraints prune the space "sometimes by as
    much as 99%"; this module turns engine statistics into the funnel the
    paper's visualization work (reference [7], VISSOFT'14) renders: how
    many candidate points each constraint removed and what fraction of
    the unconstrained space survives. *)

type row = {
  constraint_name : string;
  constraint_class : Space.constraint_class;
  fired : int;  (** times the constraint rejected (subtree abandoned) *)
  removed : int option;
      (** full points removed by those firings; [None] when the funnel
          was built from a single sweep and exact attribution is
          unavailable *)
}

type funnel = {
  space : string;
  total_points : int;  (** cardinality of the unconstrained space *)
  survivors : int;
  rows : row list;  (** in evaluation order *)
}

val survival_rate : funnel -> float
(** survivors / total_points (1.0 for an empty space). *)

val pruned_fraction : funnel -> float
(** 1 - {!survival_rate}: the paper's "as much as 99%". *)

val funnel :
  ?engine:(Plan.t -> Engine.stats) ->
  Space.t ->
  funnel
(** The reference prefix-sweep method: one sweep per prefix of the
    constraint set (constraints in evaluation order, each run adding
    one more) with the given engine (default {!Engine_staged.run}); the
    drop in survivors between consecutive runs is the number of points
    each constraint removes. Cost: [n+1] sweeps over the
    {e unconstrained} space — prefer {!funnel_single_pass}, which gets
    the same numbers from one sweep, and keep this as the independent
    cross-check it serves as in the test suite.
    @raise Plan.Error if the space does not plan. *)

val funnel_single_pass :
  ?engine:(Plan.t -> Engine.stats) ->
  Space.t ->
  funnel
(** The fast path: one provenance-instrumented sweep of the full space.
    A constraint firing at depth [d] abandons a subtree whose
    cardinality is the product of the inner loops' trip counts, and
    constraints earlier in evaluation order reject first, so summing
    those products per constraint reproduces {!funnel}'s exclusive
    removal counts exactly (see {!Provenance}). When the space defeats
    exact attribution (closure iterators or bounds read from
    later-bound variables below a check) this falls back to the
    [n+1]-sweep {!funnel} instead of returning partial counts.
    @raise Plan.Error if the space does not plan. *)

val funnel_of_run : Stats_io.t -> (funnel, string) result
(** Rebuild the funnel from a serialized instrumented run
    ([sweep --explain-out], or a [beast merge] of a complete shard set)
    without re-sweeping anything. Rows come back in evaluation order.
    [Error] when the file carries no provenance section or its rows
    disagree with the stats rows. Constraints with inexact attribution
    keep [removed = None] and do not contribute to [total_points]
    (which is then a lower bound). *)

val of_stats : Space.t -> Engine.stats -> total_points:int -> funnel
(** Cheap single-sweep variant: rows carry firing counts only
    ([removed = None]). [total_points] must be supplied by the caller
    (e.g. {!Feasible.count} of the constraint-free space). *)

val to_csv : funnel -> string
val pp : Format.formatter -> funnel -> unit
