(** Chrome trace-event JSON writer.

    Produces the object form [{"traceEvents": [...]}] accepted by
    [chrome://tracing] and Perfetto. Span begin/end map to ph "B"/"E",
    aggregate {!Obs.Complete} spans to ph "X", counters to ph "C";
    domains appear as named track rows (tid = domain id) with
    [thread_name]/[process_name] metadata events so viewers label the
    tracks. Timestamps are microseconds relative to [start_ns]. *)

val render : ?start_ns:int -> Obs.event array -> string
(** Single process (pid 1, named "beast"). *)

val render_processes : (int * string * int * Obs.event array) list -> string
(** Multi-process trace: one [(pid, name, start_ns, events)] group per
    process, with the caller assigning pids — [beast merge --traces]
    stitches per-shard traces into one view (shard as process, domain
    as thread) and uses the real shard index for the pid, so the
    [process_name] labels survive re-ordering of the input files. Each
    group's timestamps are rendered relative to its own [start_ns]. *)
