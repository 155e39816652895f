(** Translation of a plan to standard C — the paper's headline backend
    (Sections X–XI): "a translation system that converts that description
    to a standard C code, which can then be compiled with a C compiler,
    executed at high speed, and multithreaded for extra performance."

    The emitted translation unit contains:
    - [beast_sweep_slice(slice_index, slice_count, prune_counts,
      loop_iterations, survivor_hook)] enumerating a round-robin slice of
      the outermost loop (slice 0 of 1 is the whole space). Steps before
      the first loop execute in every slice, but only slice 0 counts
      their statistics (depth-0 constraint firings, the yield of a
      loop-free plan), so per-slice totals sum to exactly the
      sequential run's — the invariant {!Engine_native} relies on for
      byte-identical multithreaded stats;
    - [beast_sweep(...)] — the single-threaded entry;
    - a [main] that runs the sweep (across [threads] POSIX threads when
      [threads > 1]; a slice whose thread cannot be created runs inline)
      and prints the statistics in a stable, parseable format: one
      [survivors N] line, one [iterations N] line and one
      [pruned <name> N] line per constraint.

    A range loop whose step evaluates to 0 prints [zero-step K] (K the
    loop's position in the plan's [iter_order]) and exits with
    {!zero_step_exit}, mirroring the OCaml engines' error.

    Restrictions (mirroring the translatable subset of the paper's
    Python): opaque OCaml bodies ([Space.derived_f] / [Space.constrain_f])
    and closure iterators that depend on other iterators cannot be
    translated and yield [Unsupported]. Closure iterators over settings
    only have already been tabulated by the planner and translate as
    static arrays. *)

type error = Unsupported of string

val zero_step_exit : int
(** 3 — the exit status of a program that met a zero range step. *)

val sanitize : string -> string
(** Map a parameter name to a valid C identifier fragment (shared with
    the other language backends in {!Codegen}). *)

val pp_error : Format.formatter -> error -> unit

val generate :
  ?threads:int -> ?emit_survivors:bool -> Plan.t -> (string, error) result
(** [generate plan] returns the C source. [threads] (default 1) selects
    the pthread fan-out compiled into [main]. [emit_survivors] (default
    false) additionally prints one [hit <v0> <v1> ...] line per survivor
    (iterator values in loop order). *)

val generate_exn : ?threads:int -> ?emit_survivors:bool -> Plan.t -> string

exception Error of error
