(** Flight recorder: fixed-size per-domain rings of recent events.

    Keeps the last [capacity] {!Obs} events per domain in preallocated
    ring buffers — memory is bounded whatever the run length, unlike
    {!Recorder} — so a crash or kill dump captures the run's final
    moments without the cost of full tracing. The emit path is an
    array store and two counter bumps (the calling domain's ring is
    cached in domain-local storage); the mutex only guards the
    domain-id table, taken once per domain and at snapshot time.

    Install it as the [sink] of a run's {!Obs.ctx}, alone or with {!tee}
    to record while also feeding another sink. Dump with {!dump} from a
    signal handler or exception path: the output is plain JSONL
    ({!Sink_jsonl} lines) written atomically, so it round-trips
    through [Sink_jsonl.read_file]. *)

type t

val default_capacity : int
(** 512 events per domain. *)

val create : ?capacity:int -> unit -> t
(** [capacity] is per domain; raises [Invalid_argument] when below 1. *)

val capacity : t -> int

val sink : t -> Obs.sink

val tee : t -> Obs.sink -> Obs.sink
(** A sink that records into the rings and forwards every event to the
    inner sink. *)

val emit : t -> Obs.event -> unit

val events : t -> Obs.event array
(** Merged snapshot of all rings, sorted by timestamp (stable).
    Thread-safe against concurrent emission from other domains. *)

val event_count : t -> int

val dump : t -> string -> int
(** Write the merged snapshot as JSONL to the given path
    (temp-then-rename, so never a truncated file under the real name);
    returns the number of events written. *)
