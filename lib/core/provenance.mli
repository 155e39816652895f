(** Single-pass pruning provenance.

    {!Stats.prefix_sweeps} measures exact per-constraint attribution
    with [n+1] full sweeps; this module gets the same numbers from
    {e one} sweep by exploiting the plan's structure: a constraint
    firing at depth [d] abandons the whole subtree below it, and the
    cardinality of that subtree is the size of the nest below the check
    with every check removed — a product of trip counts wherever no
    deeper bound reads a loop's value. In the canonical nest
    constraints earlier in evaluation order (the pre-order walk) read
    only slots bound at depths [<= d], so the per-firing subtree sizes
    are {e exclusive} removal counts — each removed point is charged to
    exactly the first constraint that would have rejected it, which is
    what the prefix-sweep funnel measures.

    Subtree sizes come from {!Feasible.sub_nests}: one memoized counter
    per plan, shared by every check. Loops whose slot no deeper bound
    reads are trip-count factors; loops feeding a deeper bound (GEMM's
    [dim_vec] feeding [vec_mul]'s range) are enumerated value by value,
    memoized on the slots their sub-nest reads where that key can
    repeat, so a firing costs the loops it must enumerate up to the
    first memo hit. Three flavours result: {e static} (the count reads
    nothing bound above the check: a plan-time constant), {e dynamic}
    (counted from the live slots per firing) and {e inexact} (a [CDyn]
    iterator or an opaque derive a deeper bound reads sits below the
    check). A count that is inexact, needs more memo contexts than the
    budget, or raises leaves its constraint's row [None].

    Alongside the per-constraint counts a run records per-depth loop
    entries (the survival funnel) and a survivor-density map keyed by
    the {e value} of the outermost iterator. Values — not chunk
    indices — because {!Plan.chunk_outer} blocks partition the outer
    trip sequence: per-value cells sum across any chunk/shard split and
    re-sort deterministically, which is what makes merged shard
    provenance byte-identical to an unsharded run's.

    The collector is the [provenance] field of the run's
    {!Beast_obs.Obs.ctx}, the one ambient slot: engines read it once per
    run, accumulate into a private {!local} with no synchronization, and
    at run end add {!summary_of_local} to it, so chunks, runs and shard
    files all sum by one merge, {!merge_summaries}. With no collector
    installed the engines' uninstrumented paths are compiled, so the
    disabled cost is zero. *)

(** {2 Attribution (per plan)} *)

type removal = Feasible.sub_nest =
  | Static of int  (** subtree size is a plan-time constant *)
  | Dyn of (int array -> int)  (** counted from bound slots per firing *)
  | Inexact  (** closure iterators / later-bound slots below this depth *)

type attribution
(** Per-plan compiled attribution: rejection depth and {!removal}
    evaluator per [c_index], plus the outer iterator's slot for the
    density map. *)

val attribution : Plan.t -> attribution
val removal_of : attribution -> int -> removal
(** The removal evaluator for constraint [c_index] (for tests). *)

(** {2 Per-run accumulator} *)

type local

val local_of : attribution -> local
val fire : local -> int array -> int -> unit
(** [fire local slots c_index]: constraint [c_index] rejected with the
    given slot bindings; accumulate its subtree product and charge the
    current outer-value cell (when the firing is below depth 0). *)

val static_fire : local -> int array -> slot:int -> value:int -> int -> unit
(** [static_fire local slots ~slot ~value c_index]: replay one
    {!Plan.Static_prune} dead value — the engine never binds it, so the
    rejected loop value is substituted into [slots] at [slot] for the
    duration of the firing and restored afterwards. Removal counts and
    density cells accumulate exactly as if the constraint had fired
    live. *)

val hit : local -> int array -> unit
(** A point survived: credit the current outer-value cell. *)

(** {2 Summaries (what {!Stats_io} serializes)}

    Plain data defined in {!Beast_obs.Pruned}, re-exported here;
    [Pruned.merge_summaries] sums them and [Pruned.total_removed]
    totals one. *)

type crow = Beast_obs.Pruned.crow = {
  pc_name : string;
  pc_depth : int;  (** rejection depth: 0 = before the first loop *)
  pc_removed : int option;  (** [None] when attribution is inexact *)
}

type cell = Beast_obs.Pruned.cell = {
  cell_value : int;  (** outermost-iterator value *)
  cell_survivors : int;
  cell_removed : int;  (** exactly-attributed removals under this value *)
}

type summary = Beast_obs.Pruned.summary = {
  pv_iters : string list;  (** loop variables, outermost first *)
  pv_constraints : crow list;  (** by [c_index] *)
  pv_depth_entries : int list;  (** loop entries per depth *)
  pv_cells : cell list;  (** sorted by [cell_value] *)
}

val summary_of_local : depth_entries:int array -> local -> summary
(** A run's summary. [depth_entries] is the engine's per-depth
    loop-entry array; entries beyond the plan's loop count are
    ignored. *)

(** {2 The collector in the run's context} *)

val enabled : unit -> bool
(** Whether the installed context has a collector. *)

val with_collector : (unit -> 'a) -> 'a * summary
(** Run [f] under the current context plus a fresh collector (so an
    installed sink, tally or registry stays), restoring the context
    afterwards; returns [f]'s result and the collected summary — how
    {!Stats.funnel} runs one provenance-enabled sweep. Raises
    [Invalid_argument] when no run was collected. *)

(** {2 Serialization} *)

val to_jsonx : summary -> Beast_obs.Jsonx.t
(** Deterministic encoding (fixed key order), so equal summaries encode
    to equal bytes. *)

val of_jsonx : Beast_obs.Jsonx.t -> (summary, string) result
