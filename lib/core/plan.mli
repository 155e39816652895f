(** Loop-nest plans: the compilation target shared by every engine and
    code generator (paper Section X).

    Planning performs, in order:
    + constant-fold the global settings (Figure 10) into every expression;
    + build the dependency DAG and derive the loop order from a stable
      topological linearization (respecting the level sets of Sec. X-B);
    + assign each derived variable and constraint the {e shallowest} loop
      depth at which its dependencies are bound — the hoisting that makes
      aggressive pruning cheap;
    + lower expressions to integer slot machines ([cexpr]) suitable for
      bytecode compilation, closure staging and C emission.

    The result is the canonical nest
    [group₀; loop₁ (group₁; loop₂ (…; loopₙ (groupₙ; yield)))] where
    group_d holds the derived variables and constraints evaluable once
    depth d is bound. A constraint firing at depth d abandons the whole
    subtree below it — the source of the paper's orders-of-magnitude
    pruning savings. *)

(** Lowered expressions: variables resolved to slot indices, booleans
    represented as 0/1 integers. *)
type cexpr =
  | CLit of int
  | CSlot of int
  | CUn of Expr.unop * cexpr
  | CBin of Expr.binop * cexpr * cexpr
  | CIf of cexpr * cexpr * cexpr
  | CCall of Expr.builtin * cexpr list

type compute =
  | CE of cexpr
  | CF of int list * (int array -> int)
      (** opaque (deferred / closure) body: the sorted slots of its
          declared deps ([Space.F]'s [fn_deps]), then the body, which
          reads no other slot *)

(** Lowered iterators. *)
type citer =
  | CRange of cexpr * cexpr * cexpr  (** start, stop exclusive, step *)
  | CValues of int array
  | CDyn of int list * (int array -> int array)
      (** closure/algebra iterators, materialized at loop entry: the
          sorted slots of {!Iter.deps}, then the generator *)

type step =
  | Derive of {
      d_name : string;
      d_slot : int;
      d_compute : compute;
    }
  | Check of {
      c_name : string;
      c_class : Space.constraint_class;
      c_index : int;  (** index into per-constraint statistics *)
      c_compute : compute;  (** nonzero result prunes the point *)
    }
  | Loop of {
      l_var : string;
      l_slot : int;
      l_iter : citer;
      l_body : step list;
    }
  | Static_prune of {
      sp_var : string;  (** the loop variable whose dead values these are *)
      sp_slot : int;
      sp_dead : (int * int) array;
          (** [(value, c_index)] pairs: values the following loop would
              have visited but that a statically-evaluable constraint
              rejects for every surrounding assignment. Engines replay
              them as statistics only — one loop iteration plus one
              firing of the attributed constraint each — so a propagated
              plan's stats stay byte-identical to the unpropagated
              run's. Emitted by [Propagate.pass], never by {!make}. *)
    }
  | Yield  (** a full assignment survived every constraint *)

type t = {
  space_name : string;
  steps : step list;
  n_slots : int;
  slot_names : string array;  (** slot -> parameter name *)
  iter_order : string list;  (** loop order, outermost first *)
  iter_slots : int array;  (** slots of [iter_order], for survivor decoding *)
  constraint_info : (string * Space.constraint_class) array;
      (** by [c_index] *)
  settings : (string * Value.t) list;
  slot_index : (string, int) Hashtbl.t;
      (** name -> slot, for {!slot_of} and {!lookup_of_slots} *)
}

type error =
  | Space_error of Space.error
  | Unsupported of string
      (** non-integer literal survived folding, or invalid [order] *)

val pp_error : Format.formatter -> error -> unit

exception Error of error

val make : ?hoist:bool -> ?order:string list -> Space.t -> (t, error) result
(** [make space] builds the plan. [hoist] (default [true]) controls
    whether derived variables and constraints float to their minimal
    depth; with [hoist:false] everything evaluates at the innermost level
    (except a derived variable an iterator reads, which is bound just
    before that iterator's loop), reproducing an un-optimized
    (scripting-style) enumeration for the ablation study. [order] overrides the loop order; it must be a
    permutation of the iterator names compatible with the DAG. *)

val make_exn : ?hoist:bool -> ?order:string list -> Space.t -> t

val optimize : ?passes:(t -> t) list -> t -> t
(** [optimize ~passes t] folds the given plan-to-plan passes over [t] in
    order. The pipeline stage the CLI and engines share; passes (such as
    [Propagate.pass]) live above [Plan] in the dependency order and are
    supplied by the caller. With no passes this is the identity. *)

val static_prune_counts : (int * int) array -> (int * int) array
(** Aggregate a {!Static_prune} dead list into sorted
    [(c_index, fired)] totals — the statistics delta engines apply when
    they do not replay the dead values one by one. *)

val static_pruned : t -> int
(** Total dead values recorded by {!Static_prune} steps anywhere in the
    nest — how many loop entries propagation proved statically
    infeasible. 0 for plans straight out of {!make}. *)

val chunk_outer : t -> index:int -> of_:int -> t
(** [chunk_outer t ~index ~of_] restricts the outermost loop to the
    [index]-th of [of_] {e contiguous} blocks of its trip sequence
    (block decomposition: positions [[i*n/of_, (i+1)*n/of_)] of a trip
    count [n]). The blocks tile the original sequence exactly, so the
    union of the [of_] chunks visits the original space and per-chunk
    statistics sum to the sequential ones (depth-0 steps excepted, see
    below). A chunk of a [CValues]/[CDyn] iterator is a contiguous
    sub-array. The paper parallelizes "at the outermost loop nests,
    close to level 0" (Section X-B); this decomposition is how: both the
    work-stealing scheduler ({!Engine_parallel.run}) and cross-process
    sharding ([beast sweep --shard I/N]) are built on it. With [of_] larger than the
    outer trip count the trailing chunks are empty; they still execute
    the depth-0 steps.

    Steps before the first loop are kept in every chunk, so statistics
    for depth-0 constraints are replicated per chunk and must be
    de-duplicated when merging ({!depth0_constraints}). A plan with no
    loops is returned unchanged for [index] 0 and emptied otherwise. *)

val depth0_constraints : t -> bool array
(** Indexed by [c_index]: [true] for the constraints placed before the
    first loop. These execute once per {!chunk_outer} chunk, so merges
    keep a single chunk's counts for them. *)

val slot_of : t -> string -> int
(** @raise Not_found for names that are not iterators/derived variables *)

val lookup_of_slots : t -> int array -> Expr.lookup
(** A lookup resolving iterators and derived variables from a slot array
    and settings from the folded table — what closure bodies receive. *)

val eval_int_binop : Expr.binop -> int -> int -> int
(** Strict integer semantics of a binary operator (booleans as 0/1);
    shared with the bytecode VM. *)

val eval_cexpr : int array -> cexpr -> int
(** Reference evaluator, also used by the tree-walking engine. Division
    truncates; division or modulus by zero raises [Division_by_zero]. *)

val compile_cexpr : cexpr -> int array -> int
(** Staged twin of {!eval_cexpr}: the AST is walked once at compile
    time, yielding a closure with the same value and the same
    [Division_by_zero]. It specialises on shape: slot-free subtrees
    fold, slot and literal operands fuse into their parent's closure,
    and comparisons and boolean connectives go through {!compile_cond}.
    Use where one expression is evaluated many times against different
    slot states; every staged engine path and the provenance counting
    programs share it. *)

val compile_cond : cexpr -> int array -> bool
(** [compile_cond e] evaluates [e <> 0] without building a 0/1 int:
    comparisons (fused with slot or literal operands), [&&], [||], [!]
    and [?:] tests compile to [bool] closures. Same value and
    exceptions as [eval_cexpr slots e <> 0]. *)

val cexpr_slots : cexpr -> int list
(** Sorted slot indices read by the expression. *)

val static_cexpr : cexpr -> int option
(** The expression's value when it reads no slots (settings were folded
    during lowering, so such expressions are compile-time constants);
    [None] for slot-dependent or non-evaluating expressions. *)

val trip_count : start:int -> stop:int -> step:int -> int
(** Number of values [range(start, stop, step)] visits (0 when
    [step = 0] — engines reject zero steps separately). Exact even when
    [stop - start] overflows; a count beyond [max_int], which no loop
    could enumerate, saturates. The one formula shared by the engines,
    {!chunk_outer} and the provenance attribution, so subtree
    cardinalities agree everywhere. *)

(** {2 Solved checks}

    A loop whose body opens with a check [m * x != t] on the loop's own
    range iterator [x] keeps at most one value per entry, so an engine
    can solve the check once per entry instead of testing every value.
    The plan is not rewritten: the recogniser and the per-entry
    arithmetic live here, and each engine decides whether to use them.
    The staged engine (in every mode), the generated C and
    {!Feasible.build} solve; the interpreter and the VM test each value
    and stay the oracles. *)

type solved = {
  sv_index : int;  (** the check's [c_index] *)
  sv_coef : cexpr;  (** [m]; [CLit 1] for [x != t] *)
  sv_target : cexpr;  (** [t] *)
  sv_binds : int list;
      (** the derived slots ahead of the check and the loop's own slot:
          what a skipped value leaves unbound *)
}

val solved_check : slot:int -> citer -> step list -> solved option
(** [solved_check ~slot iter body] recognises a loop over slot [slot]
    whose iterator is a [CRange] and whose [body]'s first check has the
    shape [m * x != t], [x * m != t] or [x != t], either side of [!=],
    where [x] reads [slot]. [m] and [t] must be raise-free (literals,
    slots, [+ - *], unary [-]) and read only slots bound outside the
    loop. Only derived values that cannot raise may precede the check,
    so skipping a value skips nothing observable. *)

type solution =
  | Test_each  (** the solve could overflow: test every value *)
  | Pass_all  (** [m = t = 0]: no value fires *)
  | Pass_none  (** every value fires *)
  | Pass_one  (** only the value stored in [only] passes *)

val solve :
  start:int -> step:int -> trip:int -> coef:int -> target:int -> only:int ref ->
  solution
(** One loop entry of a solved check: the loop visits the [trip] values
    [start], [start + step], ... ([trip] exact, from {!trip_count}), and
    [coef] and [target] are [m] and [t] evaluated at entry. The answer
    is exact: with [Pass_one], [coef * x <> target] holds for every
    visited [x] except [!only]. It allocates nothing, so a sweep that
    solves once per loop entry stays allocation-free. It is [Test_each]
    when [trip] is [max_int],
    an operand or the last value is [min_int], some [|coef * x|] would
    exceed [max_int], or [coef <> 0] and the range spans more than
    [max_int]. *)

(** {2 Solved pairs}

    A loop [x] whose body is exactly one loop [y] with a solved check
    [x * y != t] (paper Fig. 15's [cant_reshape_a1]) passes only divisor
    pairs. Per entry of [x], only a window of its values can pass for
    some [y], and inside it only divisors of [t]: every other value of
    [x] costs its [y] loop's trip in entries and firings, charged in
    bulk. The same paths as {!solve} use it, and the oracles test every
    value. *)

type pair = {
  pr_var : string;  (** [y] *)
  pr_slot : int;
  pr_range : cexpr * cexpr * cexpr;  (** [y]'s start, stop, step *)
  pr_body : step list;  (** [y]'s body *)
  pr_solved : solved;  (** [y]'s solved check; its [sv_coef] is [CSlot x] *)
}

val solved_pair : slot:int -> citer -> step list -> pair option
(** [solved_pair ~slot iter body] recognises a loop over slot [slot]
    (the [x]) whose iterator is a [CRange] and whose [body] is exactly
    one [CRange] loop [y] whose {!solved_check} has coefficient
    [CSlot slot], where neither [y]'s bounds nor the target read
    [slot]. *)

val pair_window :
  start:int ->
  step:int ->
  trip:int ->
  inner_start:int ->
  inner_step:int ->
  inner_trip:int ->
  target:int ->
  lo:int ref ->
  hi:int ref ->
  bool
(** One entry of a recognised pair: [x] visits [start], [start + step],
    ... ([trip] values), [y] visits [inner_trip] values from
    [inner_start] by [inner_step], and [target] is [t]. [true] when the
    guards hold: every value and step positive and
    [last x * last y <= max_int] (so no product wraps and
    [trip * inner_trip <= max_int]). Then only the positions
    [[!lo, !hi)] of [x]'s trip can pass [x * y != t] for some [y], and
    among them only the divisors of [target]. [false]: test every value
    of [x]. Allocates nothing. *)

val pp_cexpr : Format.formatter -> cexpr -> unit
(** Infix dump of one expression, slots as [s<i>]. *)

val pp : Format.formatter -> t -> unit
(** Pseudo-code dump of the nest, for inspection and golden tests. A
    check {!solved_check} recognises is marked, as in
    [prune if c [hard, solved]: ...], and so is the outer loop of a
    {!solved_pair}, as in [for x (s7) in range(...) [window c]:]. *)
