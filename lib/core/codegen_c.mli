(** Translation of a plan to standard C — the paper's headline backend
    (Sections X–XI): "a translation system that converts that description
    to a standard C code, which can then be compiled with a C compiler,
    executed at high speed, and multithreaded for extra performance."

    The emitted translation unit contains:
    - [beast_sweep(worker, prune_counts, loop_iterations)] enumerating the
      nest. With [threads > 1] its outermost loop computes its trip count
      once and visits the positions its worker claims from one atomic
      counter ([__atomic_fetch_add]), so a skewed nest keeps every
      thread busy. Steps before that loop execute in every worker, but
      only worker 0 counts their statistics (depth-0 constraint
      firings, depth-0 static prunes, the bulk charge of a solved outer
      loop, the yield of a loop-free plan), so per-worker totals sum to
      exactly the sequential run's — the invariant {!Engine_native}
      relies on for byte-identical multithreaded stats;
    - the same shortcuts as the staged engine, in every mode: a loop
      {!Plan.solved_check} recognises is narrowed to the value
      [beast_solve] keeps, and the outer loop of a {!Plan.solved_pair}
      to the divisors in its [beast_pair_window] (a claimed outer loop
      keeps the per-value solve), the skipped values charged in bulk;
    - a [main] that runs the sweep as worker 0, beside [threads - 1]
      POSIX threads (a thread that cannot be created leaves its claims
      to the others), and prints the statistics in a stable, parseable
      format: one [survivors N] line, one [iterations N] line and one
      [pruned <name> N] line per constraint.

    A range loop whose step evaluates to 0 prints [zero-step K] (K the
    loop's position in the plan's [iter_order]) and exits with
    {!zero_step_exit}; a division or [ceil_div] by zero exits with
    {!div_zero_exit}. Both mirror the OCaml engines' errors: every
    [ceil_div], and [/] and [%] by anything but a nonzero literal, go
    through checked helpers, since C leaves division by zero undefined.

    Restrictions (mirroring the translatable subset of the paper's
    Python): opaque OCaml bodies ([Space.derived_f] / [Space.constrain_f])
    and closure iterators that depend on other iterators cannot be
    translated and yield [Unsupported]. Closure iterators over settings
    only have already been tabulated by the planner and translate as
    static arrays. *)

type error = Unsupported of string

val zero_step_exit : int
(** 3 — the exit status of a program that met a zero range step. *)

val div_zero_exit : int
(** 4 — the exit status of a program that divided by zero. *)

val sanitize : string -> string
(** Map a parameter name to a valid C identifier fragment (shared with
    the other language backends in {!Codegen}). *)

val pp_error : Format.formatter -> error -> unit

val var_names : Plan.t -> string array
(** Each slot's variable name in every backend: [v_] plus its
    {!sanitize}d parameter name. *)

val unsupported : ('a, unit, string, 'b) format4 -> 'a
(** Raise {!Error} [(Unsupported msg)]. *)

val value_tables : Plan.t -> (int * int array) list
(** Every backend's translatability scan: the static value tables
    ([CValues] loops), numbered in pre-order.
    @raise Error on the first opaque body or dynamic iterator. *)

val generate :
  ?threads:int -> ?emit_survivors:bool -> Plan.t -> (string, error) result
(** [generate plan] returns the C source. [threads] (default 1) selects
    the pthread fan-out compiled into [main]. [emit_survivors] (default
    false) additionally prints one [hit <v0> <v1> ...] line per survivor
    (iterator values in loop order). *)

val generate_exn : ?threads:int -> ?emit_survivors:bool -> Plan.t -> string

exception Error of error
