(** Single-pass pruning provenance.

    {!Stats.prefix_sweeps} measures exact per-constraint attribution
    with [n+1] full sweeps; this module gets the same numbers from
    {e one} sweep by exploiting the plan's structure: a constraint
    firing at depth [d] abandons the whole subtree below it, and the
    cardinality of that subtree is the product of the trip counts of the
    loops deeper than [d]. In the canonical nest constraints earlier in
    evaluation order (the pre-order walk) read only slots bound at
    depths [<= d], so the per-firing subtree products are {e exclusive}
    removal counts — each removed point is charged to exactly the first
    constraint that would have rejected it, which is what the
    prefix-sweep funnel measures.

    Subtree cardinality comes from a per-check counting program
    compiled over the tail of the (linear) nest ({!attribution}): loops
    whose slot no deeper bound reads hoist to a trip-count factor;
    loops feeding a deeper bound (GEMM's [dim_vec] feeding [vec_mul]'s
    range) are enumerated value by value with intervening derived slots
    recomputed, so data-dependent subtrees count exactly too.
    Enumeration only ever visits loop-bound nodes of the {e removed}
    subtree, bounding its total cost by the points removed. Three
    flavours result:
    - {e static} — the program reads nothing outside the tail: the
      count is a plan-time constant;
    - {e dynamic} — it reads slots live at the firing: evaluated (on a
      scratch copy of the slot array) per firing;
    - {e inexact} — an opaque closure sits in a load-bearing position
      below the check (a [CDyn] iterator, or a deferred derive body
      whose slot a deeper bound reads): the exact count is unknowable
      without sweeping, and the summary reports [None].

    Alongside the per-constraint counts a run records per-depth loop
    entries (the survival funnel) and a survivor-density map keyed by
    the {e value} of the outermost iterator. Values — not chunk
    indices — because {!Plan.chunk_outer} blocks partition the outer
    trip sequence: per-value cells sum across any chunk/shard split and
    re-sort deterministically, which is what makes merged shard
    provenance byte-identical to an unsharded run's.

    Collection follows the [Obs.current] discipline: engines check
    {!current} once per run, accumulate into a private {!local} with no
    synchronization, and {!publish} it under the collector's mutex at
    run end. With no collector installed the engines' uninstrumented
    paths are compiled, so the disabled cost is zero. *)

(** {2 Attribution (per plan)} *)

type removal =
  | Static of int  (** subtree product is a compile-time constant *)
  | Dyn of (int array -> int)  (** evaluated from bound slots per firing *)
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

(** {2 Ambient collector} *)

type t

val create : unit -> t

val with_current : t -> (unit -> 'a) -> 'a
(** Make [t] the ambient collector for the duration of the callback,
    restoring the previous one when it returns or raises. *)

val current : unit -> t option
val enabled : unit -> bool

val publish : t -> depth_entries:int array -> local -> unit
(** Fold a run's accumulator into the collector (thread-safe; parallel
    chunk runs publish independently and the sums compose).
    [depth_entries] is the engine's per-depth loop-entry array; entries
    beyond the plan's loop count are ignored. *)

(** {2 Summaries (what {!Stats_io} serializes)} *)

type crow = {
  pc_name : string;
  pc_depth : int;  (** rejection depth: 0 = before the first loop *)
  pc_removed : int option;  (** [None] when attribution is inexact *)
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

val summary : t -> summary
(** Raises [Invalid_argument] if nothing was ever published. *)

val total_removed : summary -> int option
(** Sum of the per-constraint removal counts; [None] when any
    constraint's attribution is inexact. *)

val merge_summaries : summary list -> (summary, string) result
(** Shard merge: constraint names/depths and the loop order must agree;
    removal counts and depth entries sum ([None] is contagious), cells
    union by value, summing fields, and re-sort. [merge_summaries]
    of per-shard summaries equals the summary an unsharded run
    collects, bucket for bucket. *)

val with_collector : (unit -> 'a) -> 'a * summary
(** Install a fresh collector around [f] (restoring any previous one),
    returning [f]'s result and the collected summary — how
    {!Stats.funnel} runs one provenance-enabled sweep. *)

(** {2 Serialization} *)

val to_jsonx : summary -> Beast_obs.Jsonx.t
(** Deterministic encoding (fixed key order), so equal summaries encode
    to equal bytes. *)

val of_jsonx : Beast_obs.Jsonx.t -> (summary, string) result
