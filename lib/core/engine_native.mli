(** The compiled tier, end to end: the paper's headline backend run as a
    real engine (Sections X–XI: "converted to a standard C code, …
    compiled with a C compiler, executed at high speed, and multithreaded
    for extra performance").

    [run] takes a {!Plan.t}, emits the C translation unit with
    {!Codegen_c.generate}, compiles it with a detected C compiler
    ([$BEAST_CC], default [cc], always [-O2 -std=c99]), caches the binary
    in a workdir keyed by a content hash of the generated source plus the
    compiler and flags — so repeated sweeps of the same space skip the
    compile entirely — runs it as a subprocess, and parses the
    [survivors]/[iterations]/[pruned] lines back into the exact
    {!Engine.stats} shape the in-process engines produce. When an
    [on_hit] callback is installed the program is generated with survivor
    emission and every [hit] line replays through the plan (iterator
    slots from the line, derived slots recomputed), so the callback sees
    the same {!Expr.lookup} the staged engine would give it, in the same
    order for a single-threaded run.

    Sharding composes for free: a plan restricted with
    {!Plan.chunk_outer} (what [beast sweep --shard I/N] does) generates a
    program for exactly that block. Inside the binary, [THREADS] workers
    (main and [THREADS - 1] pthreads) claim outer-loop positions one at a
    time from one atomic counter, so a nest whose work sits in a few
    outer values still keeps every thread busy; depth-0 statistics are
    counted by worker 0 alone. Both [beast merge] over shard files and
    the in-binary claiming reproduce the unsharded, single-threaded
    output byte for byte.

    Failures are values, not traces: an untranslatable plan (opaque OCaml
    constraint bodies, dependent closure iterators), a missing compiler,
    a failed compile and malformed subprocess output all raise {!Error}
    with a one-line actionable message. A zero range step and a division
    by zero in the running program raise {!Error} with the OCaml
    engines' text ([y: zero range step], [division by zero]). *)

exception Error of string
(** Everything that can go wrong between a plan and its parsed
    statistics; the message is a single actionable line (the CLI prints
    it and exits 2). *)

val cc : unit -> string
(** The compiler command: [$BEAST_CC] when set and non-empty, else
    ["cc"]. *)

val cflags : string list
(** [\["-O2"; "-std=c99"\]] — part of the binary cache key. *)

val default_cache_dir : unit -> string
(** [$BEAST_NATIVE_CACHE] when set, else [<tmpdir>/beast-native]. *)

val compile :
  ?workdir:string -> ?threads:int -> ?emit_survivors:bool -> Plan.t -> string
(** Generate, compile and cache; returns the binary's path inside
    [workdir] (default {!default_cache_dir}), named after the MD5 of
    (source, compiler, flags). A cache hit does no work — not even
    compiler detection. Compile artifacts are staged under
    pid-tagged [.tmp] names and renamed into place (or removed on
    failure), so a killed or crashed compile never leaves a stale
    binary a later run could pick up.
    @raise Error on untranslatable plans, a missing compiler, or a
    failing compile (with the compiler's first diagnostic lines). *)

val stats_of_lines :
  ?on_hit:Engine.on_hit ->
  Plan.t ->
  string Seq.t ->
  (Engine.stats, string) result
(** Parse the subprocess's stdout. The accepted grammar is strict —
    zero or more [hit v0 … vn] lines (arity = the plan's loop count),
    then exactly one [survivors N], one [iterations N], and one
    [pruned <name> N] per constraint in plan order — and every
    deviation (unknown line, non-integer field, wrong hit arity from
    interleaved writes, summary lines out of order, duplicated or
    missing lines, a survivor count disagreeing with the number of hit
    lines) is an [Error] naming the line. [on_hit] fires per hit line,
    in stream order, with a lookup resolving iterators, derived
    variables and settings. *)

val run :
  ?on_hit:Engine.on_hit -> ?workdir:string -> ?threads:int -> Plan.t ->
  Engine.stats
(** Compile (cached) and run the plan's program as a subprocess,
    streaming its stdout through {!stats_of_lines}. [threads] (default
    1) is the pthread fan-out compiled into the binary. If the parse
    callback raises (an [on_hit] aborting mid-stream), the subprocess
    is killed and reaped before the exception continues.
    @raise Error as {!compile}, or when the subprocess exits non-zero,
    dies on a signal, or prints output the parser rejects. *)
