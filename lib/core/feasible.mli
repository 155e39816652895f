(** Compact feasible sets (ROADMAP item 2, second half).

    A layered decision diagram over a plan's loop order: one layer per
    iterator, each node mapping the values feasible in its context to a
    shared child one layer down, value maps compressed into sorted
    arithmetic-progression runs and nodes hash-consed so identical
    sub-spaces share structure. The representation makes the survivor
    set a first-class value: exact {!count} without enumeration,
    {!nth}/{!sample} indexing, {!union}/{!inter} algebra, a
    deterministic {!to_string} serialization, and survivor-balanced
    shard planning ({!chunk_outer_balanced}).

    Two constructors: {!build} walks the plan (memoized on each
    subtree's free slots) and is exact; {!of_propagation} reads only
    the (already-tightened) iterator domains and is an upper bound —
    exact precisely when [Propagate.pass] folded every constraint into
    the iterators. *)

type t

val build : ?max_states:int -> Plan.t -> (t, string) result
(** Exact feasible set of the plan. The walk runs the plan compiled
    once into the staged engine's closures and evaluates each loop
    subtree once per distinct context — the projection of the slot
    state onto the subtree's free slots — so cost is the number of
    distinct contexts times domain width, not the space size. A loop is
    memoized on its context unless that context holds its parent loop's
    whole context plus the parent's value: such a context can never
    repeat, so the loop is walked with no memo key, lookup or entry.
    Every walk, memoized or not, counts as one state toward
    [max_states]. A loop whose first check [Plan.solved_check]
    recognises visits only the value that can pass it. Opaque computes
    and [CDyn] iterators are executed concretely but widen the memo key
    to the full slot state.
    [Error] (never an exception) on: more than [max_states] walks
    (default 2M; the message starts [state explosion] and names the
    iterator and the slots of its context), a single range entry of more
    than [max_states] values (the message names the iterator and its
    trip count), a set of more than [max_int] points, an iterator
    visiting a value twice, a zero range step, division by zero, or a
    non-canonical nest shape. *)

val of_propagation : Plan.t -> (t, string) result
(** Product of the static iterator domains: every check assumed to
    pass. An upper bound on {!build}; [Error] when an iterator has
    symbolic bounds or is dynamic, when a range holds more values than
    {!build}'s default state budget (the message names the iterator and
    its trip count, as {!build}'s does), or when the product passes
    [max_int]. *)

val count : t -> int
(** Exact number of feasible points. O(1): totals are stored on the
    nodes at construction. *)

val space_name : t -> string

val iterators : t -> string list
(** Layer order, outermost first (the plan's [iter_order]). *)

val nth : t -> int -> (string * int) list
(** The [i]-th feasible point, 0-indexed, in the canonical order —
    lexicographic by value per layer, outermost first, independent of
    the plan's trip order. One run scan per layer.
    @raise Invalid_argument when [i] is out of bounds. *)

val sample : ?rng:Random.State.t -> t -> (string * int) list option
(** A uniformly random feasible point ([None] for an empty set). The
    default generator is a fixed-seed state shared across calls, so an
    unseeded sequence is reproducible run to run. *)

val nearest : t -> int array -> (string * int) list
(** [nearest t targets] descends the diagram greedily: at each layer it
    takes the stored value nearest that layer's target ([targets] in
    layer order), the smaller value on a tie. The result is always a
    member, though not necessarily the member nearest [targets] as a
    whole. Distances are exact across the whole int range.
    @raise Invalid_argument on an empty set or when [targets] does not
    hold one value per layer. *)

val union : t -> t -> (t, string) result
val inter : t -> t -> (t, string) result
(** Set algebra over identical layer lists. [Error] on a layer-list
    mismatch, when a single layer is too wide to merge (a run
    compressing millions of values would have to be expanded), or when
    the result holds more than [max_int] points. *)

val to_string : t -> string
(** Deterministic text form: children-first depth-first numbering from
    the root, runs in sorted value order — structure-equal diagrams
    serialize identically regardless of construction order, so
    separate processes can agree on shard plans by comparing digests. *)

val chunk_outer_balanced :
  t -> Plan.t -> index:int -> of_:int -> (Plan.t, string) result
(** [Plan.chunk_outer] with the cut positions chosen by cumulative
    feasible count: each chunk is a contiguous block of the outer trip
    sequence holding as close to [count t / of_] survivors as block
    boundaries allow, instead of an equal share of raw trip positions.
    [t] must describe [plan] (built from it or its propagated form).
    Falls back to [Plan.chunk_outer] when the outer iterator is not
    static. Depth-0 [Static_prune] bookkeeping splits by block
    position, so merged statistics still sum to the sequential run's.
    [Error] when the outer range holds more values than {!build}'s
    default state budget, with {!build}'s message.
    @raise Invalid_argument for [of_ <= 0] or [index] out of range. *)
