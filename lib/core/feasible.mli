(** Compact feasible sets (ROADMAP item 2, second half).

    A layered decision diagram over a plan's loop order: one layer per
    iterator, each node mapping the values feasible in its context to a
    shared child one layer down, value maps compressed into sorted
    arithmetic-progression runs and nodes hash-consed so identical
    sub-spaces share structure. The representation makes the survivor
    set a first-class value: exact {!count} without enumeration,
    {!nth}/{!sample} indexing, {!union}/{!inter} algebra and a
    deterministic {!to_string} serialization.

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
    and [CDyn] iterators run as they are and key on their declared deps.
    [Error] (never an exception) on: more than [max_states] walks
    (default 2M; the message starts [state explosion] and names the
    iterator and the slots of its context), a single range entry of more
    than [max_states] values (the message names the iterator and its
    trip count), a set of more than [max_int] points, an iterator
    visiting a value twice, a zero range step, division by zero, a
    closure reading a name it does not declare, or a non-canonical nest
    shape. *)

type sub_nest =
  | Static of int  (** reads no slot bound above the check: a constant *)
  | Dyn of int list * (int array -> int)
      (** counted from the live slots; the list names the slots read *)
  | Inexact  (** the plan-time count of a [Static] sub-nest raised *)

val sub_nests : ?max_states:int -> Plan.t -> sub_nest array
(** By [c_index]: the size of the nest below each check with every
    check removed, given the slots bound above it — what one firing
    prunes. One counter serves every check: a loop whose slot nothing
    below reads is a trip-count factor, any other enumerates, memoized
    on the slots its sub-nest reads where that key can repeat. [Dyn]
    copies only those slots into one scratch array. A count raises when
    it needs more than [max_states] (default 2M) memo contexts or must
    enumerate a longer range, or on an evaluation error: a [Static] one
    is then [Inexact], and the caller treats a [Dyn] one as unknown. *)

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

val nth_into : t -> int -> int array -> unit
(** [nth_into t i point] writes the [i]-th feasible point, 0-indexed,
    into [point] in {!iterators} order. The order is canonical —
    lexicographic by value per layer, outermost first, independent of
    the plan's trip order. One run scan per layer, no allocation.
    @raise Invalid_argument when [i] is out of bounds or [point] is
    shorter than the layer list. *)

val nth : t -> int -> (string * int) list
(** {!nth_into} as a fresh [(iterator, value)] list. *)

val sample_into : ?rng:Random.State.t -> t -> int array -> bool
(** Draw a uniformly random feasible point into [point] as
    {!nth_into} writes it; [false] (and [point] untouched) for an empty
    set. The default generator is a fixed-seed state shared across
    calls, so an unseeded sequence is reproducible run to run. *)

val sample : ?rng:Random.State.t -> t -> (string * int) list option
(** {!sample_into} as a fresh [(iterator, value)] list; [None] for an
    empty set. *)

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
    separate processes can compare sets by digest. *)
