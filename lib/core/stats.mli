(** Pruning statistics and funnel reports.

    Section VI observes that constraints prune the space "sometimes by as
    much as 99%"; this module turns engine statistics into the funnel the
    paper's visualization work (reference [7], VISSOFT'14) renders: how
    many candidate points each constraint removed and what fraction of
    the unconstrained space survives. *)

type row = {
  constraint_name : string;
  constraint_class : Space.constraint_class;
  depth : int;  (** rejection depth: 0 = before the first loop *)
  fired : int;  (** times the constraint rejected (subtree abandoned) *)
  removed : int option;
      (** full points removed by those firings; [None] when exact
          attribution is unavailable (see {!of_run}) *)
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

val of_run : Stats_io.t -> (funnel, string) result
(** The one place a run becomes funnel rows: pair a serialized
    instrumented run's stats rows ([sweep --explain-out], or a
    [beast merge] of a complete shard set) with its provenance rows,
    without re-sweeping anything. Rows come back in evaluation order
    (a stable sort by rejection depth; the canonical nest is linear).
    [Error] when the run carries no provenance section or its rows
    disagree with the stats rows. Constraints with inexact attribution
    keep [removed = None] and do not contribute to [total_points]
    (which is then a lower bound). *)

val funnel : Space.t -> funnel
(** The funnel from one provenance-instrumented staged sweep, read
    through {!of_run}. A constraint firing at depth [d] abandons the
    nest below it, and earlier constraints reject first, so these sums
    are each constraint's exclusive removal count (see {!Provenance}).
    A row is [None] only when counting its removal raised (the state
    budget, or an evaluation error the sweep never reached). Emits one
    ["funnel"] trace instant per row.
    @raise Plan.Error if the space does not plan. *)

val prefix_sweeps : Space.t -> funnel
(** The tests' reference for {!funnel}: one staged sweep per
    prefix of the constraint set in evaluation order, each adding one
    more constraint; the drop in survivors between consecutive sweeps
    is the number of points each constraint removes. Cost: [n+1] sweeps
    over the {e unconstrained} space.
    @raise Plan.Error if the space does not plan. *)

val exact : funnel -> bool
(** Every row's [removed] is known, so [total_points] is exact. *)

val to_csv : funnel -> string
(** One row per constraint, then a TOTAL row summing fired and removed;
    the TOTAL removed cell is empty unless the funnel is {!exact}, as an
    unknown row's is. *)

val partial_note : string
(** What {!pp} and {!Visualize.html_report} print in place of a point
    total when the funnel is not {!exact}. *)

val pp : Format.formatter -> funnel -> unit
(** The header gives [total_points] only when the funnel is {!exact}. *)
