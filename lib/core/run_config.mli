(** One record for everything a run can be configured with beyond the
    space itself: observability (trace, progress, metrics, run record,
    flight recorder), sharding and the checkpoint/resume/
    fault-injection settings of long-running sweeps. [bin/beast.ml]
    builds the record once per invocation and threads it through
    sweep/tune/funnel/search instead of passing a growing pile of
    per-function optional arguments. *)

type trace_format =
  | Jsonl  (** one event per line *)
  | Chrome  (** trace-event JSON, loadable in Perfetto *)
  | Summary  (** human-readable aggregates *)

type fault =
  | Chunk_crash of { prob : float; seed : int }
      (** test hook: each chunk attempt crashes with probability [prob],
          drawn deterministically from [seed], the chunk id and the
          attempt number; the scheduler must retry it to completion *)
  | Chunk_fatal of { chunk : int }
      (** test hook: the first attempt at chunk [chunk] raises an
          unrecoverable exception, taking the whole run down — exercises
          the crash path (flight-recorder dump, run record state) *)

type t = {
  trace : string option;  (** write a trace of the run to this file *)
  trace_format : trace_format;
  progress : bool;  (** live progress reporting on stderr *)
  metrics : bool;  (** install a metrics registry around the run *)
  metrics_out : string option;
      (** write Prometheus text exposition here (implies [metrics]) *)
  shard : (int * int) option;  (** [(i, n)]: run block [i] of an n-way split *)
  propagate : bool option;
      (** force the constraint-propagation pre-pass on ([Some true]) or
          off ([Some false]); [None] defers to the engine's catalog
          default ({!Engine_registry.entry}) *)
  checkpoint : string option;  (** periodically snapshot progress here *)
  checkpoint_every_s : float;  (** seconds between checkpoint writes *)
  resume : string option;  (** checkpoint file to resume from *)
  fault : fault option;
  explain_out : string option;
      (** collect single-pass pruning provenance and write it (with the
          run's stats) here, for [beast explain] *)
  run_id : string option;
      (** explicit run id; also stamped into the stats file (a minted id
          never is, keeping --stats-out byte-identical across
          instrumentation settings) *)
  runs_dir : string option;
      (** write the {!Beast_obs.Status} run record [runs_dir/<run id>.json]:
          at start, every [status_every_s] and once at exit, for
          [beast top] and [beast runs] *)
  status_every_s : float;
      (** seconds between run-record rewrites; 0 = every tick *)
  flight : string option;
      (** keep each domain's last 512 events (a
          {!Beast_obs.Recorder} with a capacity) and dump them here as
          JSONL at exit (clean, interrupted or crashed) *)
  archive : bool;
      (** ingest the run's stats record into the cross-run archive on
          clean completion *)
  archive_dir : string option;
      (** archive directory; defaults to
          {!Beast_obs.Archive.default_dir} *)
}

val default : t
(** No instrumentation, no shard, no checkpointing,
    [checkpoint_every_s = 5.0], [status_every_s = 1.0]. *)

val metrics_enabled : t -> bool
(** [metrics || metrics_out <> None]. *)

val checkpoint_path : t -> string option
(** [checkpoint], else [resume]: a resumed run keeps checkpointing into
    the file it resumed from unless [checkpoint] redirects it. *)

val validate : t -> (unit, string) result
(** Reject configurations that would otherwise fail silently: shard
    bounds ([n <= 0], [i < 0] or [i >= n] would sweep an empty space),
    non-positive checkpoint periods, negative status periods, crash
    probabilities outside
    [\[0, 1)], negative fatal chunk ids, and [explain_out] combined
    with [resume] (a resumed run skips completed chunks, so its
    provenance would describe only the tail of the sweep). *)

val with_instrumentation :
  ?outputs:string list ->
  space:string -> engine:string -> t -> (string option -> int) -> int
(** Run the callback as one instrumented run and return its exit code.

    The run id is [run_id], or minted when any introspection surface
    wants one ([runs_dir], [flight], [trace] or [archive]); the callback
    receives it. Before anything is installed, [outputs] (the files only
    the caller writes), [explain_out], {!checkpoint_path}, [flight],
    [trace] and [metrics_out] are probed
    ({!Beast_obs.Jsonx.check_writable}) and the run record written (with
    [runs_dir]): a bad path raises [Sys_error] naming it, no file
    touched.

    The callback runs under one {!Beast_obs.Obs.ctx}: the trace
    and/or flight recorder as its sink, one progress tally (with
    [progress] or [runs_dir]) drawn by the terminal reporter and/or the
    run record's heartbeat, the metrics registry, the
    [instrumented] decision (tracing, terminal progress or metrics on)
    and, with [explain_out], a provenance collector; the callback reads
    the collector's summary itself (serialization needs the plan and
    shard tag, which only it has).
    [run_id] and [space] are stamped into a ["run:meta"] instant event
    at the head of the event stream.

    On every exit path the context is uninstalled, the progress line
    finished, and the metrics, flight recording and trace written
    ({!Beast_obs.Jsonx.write_with}), each even when another failed. The
    record is then finalized with how the run ended: 0 completed, 3
    interrupted, another code crashed, an exception crashed with 1 for
    [Sys_error] (a failed write too) or 125. The callback's exception,
    or else the first failed write's, is re-raised. *)
