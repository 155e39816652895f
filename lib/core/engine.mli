(** Types shared by the evaluation engines.

    The paper's translation system targets several backends; we provide
    four in-process engines with deliberately different cost models plus
    the C code generator (see {!Codegen_c}):

    - {!Engine_interp} — tree-walking over named environments, the
      scripting-language tier of Figure 17;
    - {!Engine_vm} — flat bytecode on an integer register file, the
      Lua-like tier of Figure 18;
    - {!Engine_staged} — the plan compiled to nested OCaml closures, the
      compiled tier of Figure 19;
    - {!Engine_parallel} — the staged engine fanned out over OCaml 5
      domains (the paper's "multithreaded for extra performance"). *)

type stats = {
  survivors : int;  (** points that passed every constraint *)
  loop_iterations : int;
      (** loop-body entries summed over every nesting depth — the
          iteration count whose rate Figures 17–19 report *)
  pruned : (string * Space.constraint_class * int) array;
      (** per constraint: how many times it fired (each firing abandons
          the entire subtree below its hoisting depth) *)
}

type on_hit = Expr.lookup -> unit
(** Survivor callback. The lookup resolves every iterator, derived
    variable and setting of the space at the surviving point. It is only
    valid for the duration of the call. *)

val empty_stats : Plan.t -> stats
val total_pruned : stats -> int

val merge : stats -> stats -> stats
(** Pointwise sum; the constraint arrays must describe the same plan. *)

val merge_blocks : depth0:bool array -> stats list -> stats
(** The one rule for recombining the blocks of a split sweep
    ({!Plan.chunk_outer} chunks, [--shard] files, checkpointed chunks):
    every count sums, except the fired counts of the constraints
    [depth0] marks ({!Plan.depth0_constraints}), which ran once per
    block and keep the per-index maximum. Order-independent.
    @raise Invalid_argument on an empty list or mismatched plans. *)

val pp_stats : Format.formatter -> stats -> unit

val zero_step : string -> 'a
(** [zero_step var] raises [Expr.Eval_error "<var>: zero range step"]:
    the one diagnostic every in-process engine gives for a range loop
    whose step evaluates to 0. *)

val report_totals :
  Beast_obs.Metrics.t option -> survivors:int -> loop_iterations:int -> unit
(** The end-of-run totals every engine reports, the compiled tier
    included: the final progress tick and, with a registry, the
    [points_total] and [survivors_total] counters. *)

(** {2 Per-run accounting}

    The bookkeeping every in-process engine does once per run, in one
    record: the interpreter, the VM and the staged engine each call
    {!Run.start} before compiling and {!Run.finish} after sweeping, and
    differ only in how they execute the plan in between. The hot code
    keeps its own counters where that is cheaper (the staged closures
    fold theirs into [pruned] and [depth_entries] before [finish]). *)

module Run : sig
  type t = {
    plan : Plan.t;
    instrumented : bool;
        (** {!instrumenting}, decided once, at {!start} *)
    prov : (Beast_obs.Pruned.collector * Provenance.local) option;
        (** the context's collector and this run's private accumulator,
            when provenance is on *)
    metrics : Beast_obs.Metrics.t option;
    eval_hists : Beast_obs.Metrics.histogram array option;
        (** per-constraint [constraint_eval_ns] histograms, by
            [c_index]; see {!charge} *)
    pruned : int array;  (** firings by [c_index] *)
    depth_entries : int array;  (** loop entries per depth *)
    check_time : int array;  (** evaluation ns by [c_index] *)
    level_time : int array;  (** ns inside each loop level *)
    mutable outer_done : int;
    mutable outer_total : int;
        (** position in the outermost loop, for the progress fraction;
            [outer_total = 0] reports the fraction as unknown *)
    mutable last_ns : int;
    mutable last_points : int;
    mutable t0 : int;  (** the sweep's start, set by {!sweep} *)
  }

  val instrumenting : unit -> bool
  (** The [instrumented] field of the installed {!Beast_obs.Obs.ctx}:
      tracing, terminal progress or metrics is on. Instrumented runs
      time each constraint evaluation and each loop level, and sample
      progress / points-per-second. *)

  val start : Plan.t -> t
  (** Read the Obs context (its provenance collector too) once and
      allocate the per-constraint and per-depth arrays. *)

  val charge : t -> int -> int -> unit
  (** [charge r c] resolves, once, the recorder for constraint [c]:
      the returned function adds an evaluation's ns to [check_time]
      and, with metrics, to its [constraint_eval_ns] histogram. *)

  val tick : t -> points:int -> survivors:int -> unit
  (** Every [0x8000] points: a points/sec counter (when tracing) and a
      progress tick. Instrumented runs call it once per loop entry. *)

  val sweep :
    t ->
    ?args:(string * Beast_obs.Obs.arg) list ->
    string ->
    (unit -> unit) ->
    unit
  (** [sweep r name f] runs the enumeration [f] inside the engine's
      [name] span (with the space name plus [args]), recording its start
      for the aggregates. *)

  val finish : t -> survivors:int -> loop_iterations:int -> stats
  (** Emit the per-constraint and per-level aggregates (tracing only),
      add the run's provenance summary to the collector, bump the
      [loop_entries_total] counters (metrics only) and call
      {!report_totals}; return the run's statistics. *)
end
