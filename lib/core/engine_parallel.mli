(** Multithreaded sweep: the staged engine fanned out over OCaml 5
    domains by one work-stealing scheduler. The outermost loop — level 0
    of the DAG, exactly where the paper says parallelization belongs
    (Section X-B) — is decomposed into contiguous blocks with
    {!Plan.chunk_outer}; many more chunks than domains are produced and
    a shared atomic cursor hands them out, so a domain whose chunk was
    pruned empty immediately steals the next one instead of idling while
    a skewed sibling finishes. Each chunk run is traced as its own
    [sweep:chunk] span, making the load balance visible in a
    Chrome/Perfetto trace. The same scheduler keeps a
    ledger of completed chunks, which is what makes a sweep
    checkpointable, resumable and interruptible.

    Steps placed before the first loop (depth-0 derived variables and
    constraints) execute once per chunk; their prune counters are
    de-duplicated by the one block merge, {!Engine.merge_blocks}, so the
    reported statistics match a sequential run exactly — totals,
    per-constraint fired counts and loop iterations are all identical to
    {!Engine_staged.run}. *)

val default_chunks_per_domain : int
(** 8 chunks per domain: enough that one skewed block cannot dominate a
    domain, few enough that per-chunk compilation stays invisible. *)

val interrupt : unit -> unit
(** Request a graceful stop of the sweep in flight: each worker finishes
    the chunk it is running (the ledger only ever holds complete
    chunks), a final checkpoint is flushed, and {!run_resumable} returns
    {!Engine_intf.Interrupted}. Async-signal-safe — this is what the
    CLI's SIGINT/SIGTERM handlers call. *)

val run_resumable :
  ?on_hit:Engine.on_hit ->
  ?checkpoint:Engine_intf.checkpoint_sink ->
  ?resume:Checkpoint.t ->
  ?fault:Run_config.fault ->
  domains:int ->
  Plan.t ->
  Engine_intf.outcome
(** The scheduler: a chunked work-stealing sweep over [domains] domains
    using [domains * default_chunks_per_domain] chunks, with a chunk
    ledger. The calling domain is worker 0; it spawns
    [min domains pending - 1] helpers, where [pending] counts the chunks
    left to sweep, so [domains = 1] and a resume with one pending chunk
    spawn none (the [sweep:parallel] span records the count as
    [helpers]). [on_hit] may be invoked from any domain but invocations are
    serialized behind an internal mutex, so the callback need not be
    thread-safe (it must not call back into the sweep, or it will
    deadlock). A chunk that raises stops the other workers at their next
    chunk boundary and the exception propagates once every helper is
    joined.

    [resume] seeds the ledger with the checkpoint's completed chunks
    (and fixes the chunk-split arity to the file's [n_chunks], so a
    resume may use a different domain count); only the missing chunks
    are swept. [checkpoint] snapshots the ledger atomically at most once
    per [ck_every_s] seconds, and once more on interruption, with
    {!Checkpoint.run_metrics}[ resume] as its metrics. Because
    chunk merging is commutative and associative, an
    interrupted-then-resumed run produces stats equal to an
    uninterrupted one — byte-identical through {!Stats_io.to_json}.
    [fault] makes chunk attempts crash deterministically (drawn from the
    seed, chunk id and attempt number, decided {e before} the chunk runs
    so [on_hit] stays exactly-once); crashed chunks are retried until
    they complete.
    @raise Invalid_argument on bad [domains] or crash probability.
    @raise Failure if one chunk crashes 1000 attempts in a row. *)

val run : ?on_hit:Engine.on_hit -> domains:int -> Plan.t -> Engine.stats
(** {!run_resumable} with no checkpoint, resume or fault, unwrapped.
    @raise Invalid_argument if [domains < 1].
    @raise Failure if {!interrupt} is called while the sweep runs (the
    partial ledger is discarded; use {!run_resumable} to keep it). *)
