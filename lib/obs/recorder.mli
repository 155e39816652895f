(** In-memory event recorder: the one per-domain event buffer behind
    both [--trace] and [--flight].

    Each domain appends to its own buffer (found or created once per
    domain by {!Metrics.cell_for}, then cached in domain-local storage),
    so recording a parallel sweep never contends on event payloads; the
    buffers are merged into one time-sorted stream when read — the
    "merge per-domain buffers at join" step of the parallel engine
    happens here, keyed on the emitting domain.

    Without a capacity the buffers grow and keep every event (a trace).
    With one, each domain keeps only its last [capacity] events in a
    preallocated ring (a flight recording): memory is bounded whatever
    the run length, and {!dump} writes the run's final moments from a
    signal handler or exception path. *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] is per domain; raises [Invalid_argument] when below 1. *)

val sink : t -> Obs.sink

val start_ns : t -> int
(** Monotonic time at recorder creation; the natural time origin for
    trace output. *)

val events : t -> Obs.event array
(** All held events, merged across domains, sorted by timestamp
    (stable). Call it once every spawned domain has been joined. *)

val event_count : t -> int

val domains : t -> int list
(** Domain ids that emitted at least one event, ascending. *)

val dump : t -> string -> int
(** Write {!events} as JSONL to the given path
    ({!Jsonx.write_with}: never a truncated file under the real name,
    and {!Sink_jsonl.read_file} reads it back); returns the number of
    events written. *)
