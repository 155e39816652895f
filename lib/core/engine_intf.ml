(** The common face of the evaluation engines.

    Each engine packs its entry points behind {!module-type-S} so the
    CLI, the tuner and the bench select engines by name through
    {!Engine_registry}. A types-only module: this file is its own
    interface. *)

(** What an engine is asked to enumerate. A [Space] leaves planning to
    the engine — the interpreters build their own (naive or hoisted)
    plan, reproducing their cost model end to end, and the compiled
    tiers plan it once with [Plan.make_exn]. A [Plan] hands the engine an
    exact nest to execute as given: chunked, sharded and propagated
    sweeps all reach every engine through this one shape. *)
type target =
  | Space of Space.t
  | Plan of Plan.t

type outcome =
  | Finished of Engine.stats
  | Interrupted of { completed : int; total : int }
      (** stopped by {!Engine_parallel.interrupt} after draining the
          in-flight chunks; [completed] of [total] chunks made it into
          the checkpoint (when one was requested) *)

type checkpoint_sink = {
  ck_path : string;  (** checkpoint file, written atomically *)
  ck_every_s : float;  (** minimum seconds between periodic writes *)
  ck_run_id : string option;
      (** stamped into the snapshot so resumed artifacts correlate with
          the run that wrote them *)
  ck_shard : Stats_io.shard;
      (** recorded in the file so resume can reject a shard mismatch *)
}

type resumable =
  ?on_hit:Engine.on_hit ->
  ?checkpoint:checkpoint_sink ->
  ?resume:Checkpoint.t ->
  ?fault:Run_config.fault ->
  Plan.t ->
  outcome
(** A checkpointing sweep: skips the chunks [resume] records as
    complete, periodically snapshots the ledger to [checkpoint], and —
    under [fault] injection — retries crashed chunks with the survivor
    callback still invoked exactly once per surviving point. *)

module type S = sig
  val name : string

  val run : ?on_hit:Engine.on_hit -> target -> Engine.stats
  (** The one entry point, over both target shapes. Engines never
      re-plan a handed-in [Plan]. *)

  val resumable : resumable option
  (** checkpoint/resume/fault-injection entry point; only the parallel
      scheduler keeps a chunk ledger, so only it offers one *)
end
