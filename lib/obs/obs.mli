(** The observability event model and the per-run context.

    One context per run, one slot: monotonic-clock spans, instant events
    and sampled counters flow into the {!sink} of the installed {!ctx},
    which also carries the run's progress {!Tally}, {!Metrics} registry
    and {!Pruned} provenance collector. A run installs its context with
    {!with_context} ([Run_config.with_instrumentation] builds it from a
    run's configuration); engines read it once per run with {!current}.
    With no context installed every emission helper reduces to a single
    load-and-branch, so instrumented hot paths stay within the engines'
    performance budget (measured in [bench/main.ml]).

    Events are tagged with the emitting domain's id; thread-safety of
    concurrent emission is the sink's responsibility ({!Recorder} keeps
    per-domain buffers and merges them when read). Install the context
    before spawning domains. *)

type arg =
  | Int of int
  | Float of float
  | Str of string

type kind =
  | Begin  (** span opens; matched by an {!End} with the same name *)
  | End
  | Complete of int
      (** self-contained span with an explicit duration in ns —
          used for post-hoc aggregates (per-constraint cumulative
          time, per-level timings) *)
  | Instant
  | Counter of float  (** sampled value, e.g. points/second *)

type event = {
  ev_name : string;
  ev_cat : string;  (** category: "plan", "engine", "constraint", "level", ... *)
  ev_ts_ns : int;  (** monotonic timestamp ({!Clock.now_ns}) *)
  ev_dom : int;  (** emitting domain id *)
  ev_kind : kind;
  ev_args : (string * arg) list;
}

type sink = event -> unit
(** May be called concurrently from domains. *)

(** {2 The per-run context} *)

type ctx = {
  sink : sink option;  (** trace recorder and/or flight ring *)
  instrumented : bool;
      (** engines compile their instrumented paths (per-constraint
          timings, per-level entry counts, periodic progress ticks).
          Set when tracing, terminal progress or metrics is on; a flight
          ring or a run record alone leaves it off, and sees only
          the engine-level events and once-per-run ticks of the plain
          path. *)
  tally : Tally.t option;  (** fed by {!progress_tick} and {!chunk_tick} *)
  metrics : Metrics.t option;
  provenance : Pruned.collector option;
      (** engines add each run's pruning summary to it ([--explain-out]) *)
}

val off : ctx
(** Nothing installed: what {!current} returns outside a run. *)

val current : unit -> ctx
(** The installed context; engines read it once per run. *)

val with_context : ctx -> (unit -> 'a) -> 'a
(** Install [ctx] for the duration of the callback and restore the
    previous context when it returns or raises. A context with nothing
    on installs as {!off}. *)

val enabled : unit -> bool
(** Whether the context has a sink. *)

val emit : event -> unit
(** Forward a ready-made event; one branch when tracing is off. *)

val domain_id : unit -> int

(** {2 Emission helpers}

    All are no-ops (one branch, no allocation, no clock read) when
    tracing is disabled. *)

val span_begin : ?cat:string -> ?args:(string * arg) list -> string -> unit
val span_end : ?cat:string -> ?args:(string * arg) list -> string -> unit

val with_span :
  ?cat:string -> ?args:(string * arg) list -> string -> (unit -> 'a) -> 'a
(** Wrap a computation in a balanced span; the end event is emitted even
    if the computation raises. *)

val instant : ?cat:string -> ?args:(string * arg) list -> string -> unit
val counter : ?cat:string -> string -> float -> unit

val complete :
  ?cat:string ->
  ?args:(string * arg) list ->
  ?ts:int ->
  dur_ns:int ->
  string ->
  unit
(** Emit a {!Complete} span; [ts] defaults to now (pass the run's start
    time to stack aggregate spans on one track). *)

(** {2 Progress and metrics}

    No-ops (one branch) when the context has no tally or registry. *)

val progress_tick : points:int -> survivors:int -> frac:float -> unit
(** An engine's latest point and survivor counts for the calling domain;
    [frac] is the completed fraction of the outermost loop when the
    engine can tell it, negative otherwise. Engines tick every few tens
    of thousands of loop iterations on the instrumented path, and once
    at the end of every run (every chunk in parallel sweeps). *)

val chunk_tick : completed:int -> total:int -> unit
(** Fed by the parallel scheduler once per completed chunk, so it costs
    nothing per point and needs no instrumented path. *)

val time_phase : string -> (unit -> 'a) -> 'a
(** [time_phase name f] runs [f] and records its wall time into the
    [phase_ns{phase=name}] histogram of the context's registry. *)

(** {2 Debug} *)

val arg_to_string : arg -> string
val kind_name : kind -> string
val pp_event : Format.formatter -> event -> unit
