(** One record for everything a run can be configured with beyond the
    space itself: observability (trace, progress, metrics, heartbeat
    status, flight recorder), sharding and the checkpoint/resume/
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
          the crash path (flight-recorder dump, manifest status) *)

type t = {
  trace : string option;  (** write a trace of the run to this file *)
  trace_format : trace_format;
  progress : bool;  (** live progress reporting on stderr *)
  progress_every_s : float option;
      (** progress redraw period; defaults to the reporter's own
          (0.2s tty / 2s plain) — raise it so non-tty CI logs aren't
          flooded on long sweeps *)
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
      (** write a {!Beast_obs.Run_meta} manifest into this directory *)
  status : string option;
      (** atomically rewrite a heartbeat status snapshot here, for
          [beast top] *)
  status_every_s : float;  (** seconds between status rewrites; 0 = every tick *)
  flight : string option;
      (** keep a flight-recorder ring of recent events and dump it here
          as JSONL at exit (clean, interrupted or crashed) *)
  flight_capacity : int;  (** ring capacity per domain *)
  archive : bool;
      (** ingest the run's stats record into the cross-run archive on
          clean completion *)
  archive_dir : string option;
      (** archive directory; defaults to
          {!Beast_obs.Archive.default_dir} *)
}

val default : t
(** No instrumentation, no shard, no checkpointing,
    [checkpoint_every_s = 5.0], [status_every_s = 1.0],
    [flight_capacity = Flight.default_capacity]. *)

val metrics_enabled : t -> bool
(** [metrics || metrics_out <> None]. *)

val validate : t -> (unit, string) result
(** Reject configurations that would otherwise fail silently: shard
    bounds ([n <= 0], [i < 0] or [i >= n] would sweep an empty space),
    non-positive checkpoint/progress periods, negative status periods,
    a flight ring below one event, crash probabilities outside
    [\[0, 1)], negative fatal chunk ids, and [explain_out] combined
    with [resume] (a resumed run skips completed chunks, so its
    provenance would describe only the tail of the sweep). *)

val with_instrumentation :
  space:string -> engine:string -> t -> (string option -> int) -> int
(** Run the callback as one instrumented run and return its exit code.

    The run id is [run_id], or minted when any introspection surface
    wants one ([runs_dir], [status], [flight], [trace] or [archive]);
    the callback receives it. Output files are opened and the
    {!Beast_obs.Run_meta} manifest saved (with [runs_dir]) before
    anything is installed, so a bad path raises [Sys_error] up front
    with nothing left installed.

    The callback runs under one {!Beast_obs.Obs.ctx}: the trace
    recorder and/or flight ring as its sink, one progress tally drawn
    by the terminal reporter and/or the status heartbeat, the metrics
    registry, and the [instrumented] decision (tracing, terminal
    progress or metrics on). With [explain_out] a {!Provenance}
    collector is ambient too; the callback reads
    [Provenance.current ()]'s summary itself (serialization needs the
    plan and shard tag, which only the caller has). [run_id] and
    [space] are stamped into the status file and into a ["run:meta"]
    instant event at the head of the event stream.

    How the run ended is decided once, from the returned exit code
    (0 completed, 3 interrupted, anything else crashed) or from an
    exception (crashed, exit code 125), and written to both the status
    file's final state and the manifest. On every exit path the
    context is uninstalled, the progress line finished, the metrics
    written, the flight ring dumped and the trace written; an exception
    is then re-raised. *)
