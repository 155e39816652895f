(** Pruning-provenance summaries as plain data, and the per-run
    collector that sums them.

    A summary is what a sweep (or one chunk of it) removed: each
    constraint's exclusive removal count, the loop entries per depth and
    survivor-density cells keyed by the outermost iterator's value. All
    of it merges by summation, so {!merge_summaries} is the one merge for
    parallel chunks, repeated runs and shard files alike.
    [Provenance] in [beast_core] builds summaries from a plan and
    re-exports these types; the {!collector} rides in the run's
    [Obs.ctx]. *)

type crow = {
  pc_name : string;
  pc_depth : int;  (** rejection depth: 0 = before the first loop *)
  pc_removed : int option;  (** [None] when the removal count raised *)
}

type cell = {
  cell_value : int;  (** outermost-iterator value *)
  cell_survivors : int;
  cell_removed : int;  (** exactly-attributed removals under this value *)
}

type summary = {
  pv_iters : string list;  (** loop variables, outermost first *)
  pv_constraints : crow list;  (** by [c_index] *)
  pv_depth_entries : int list;  (** loop entries per depth *)
  pv_cells : cell list;  (** sorted by [cell_value] *)
}

val total_removed : summary -> int option
(** Sum of the per-constraint removal counts; [None] when any
    constraint's count is unknown. *)

val merge_summaries : summary list -> (summary, string) result
(** Constraint names/depths and the loop order must agree; removal
    counts and depth entries sum ([None] is contagious), cells union by
    value, summing fields, and re-sort. [merge_summaries] of per-chunk
    or per-shard summaries equals the summary of the whole sweep, bucket
    for bucket. *)

(** {2 Collector} *)

type collector = { mutex : Mutex.t; mutable acc : summary option }
(** The sum of every summary {!add}ed so far; [None] before the first. *)

val collector : unit -> collector

val add : collector -> summary -> unit
(** Merge a run's summary into the collector (thread-safe: parallel
    chunk runs add independently). Raises [Invalid_argument] when it
    does not merge with what is there (runs of different plans). *)
