(** Serialization and merging of sweep results for cross-process
    sharding.

    [beast sweep --shard I/N --stats-out FILE] runs the [I]-th
    {!Plan.chunk_outer} block of a space and writes the resulting
    {!Engine.stats} — survivor and loop-iteration totals plus the
    per-constraint pruned counts, tagged with each constraint's class
    and whether it sits at depth 0 — as deterministic JSON.
    [beast merge] reads the N files back and recombines them with the
    same depth-0 de-duplication the in-process scheduler uses, so the
    merged file is byte-for-byte the one an unsharded sweep writes. *)

type constraint_row = {
  cr_name : string;
  cr_class : Space.constraint_class;
  cr_depth0 : bool;
      (** placed before the first loop: executed once per shard, so
          merging keeps a single shard's count instead of summing *)
  cr_fired : int;
}

type shard = {
  shard_index : int;
  shard_of : int;
}

val unsharded : shard
(** [{shard_index = 0; shard_of = 1}] — a whole-space run. *)

type t = {
  space : string;
  run_id : string option;
      (** the writing run's id, present only when the run was given an
          explicit [--run-id] (a minted id would break the byte-identity
          of instrumented vs uninstrumented stats files); dropped by
          {!merge} *)
  shard : shard;
  survivors : int;
  loop_iterations : int;
  constraints : constraint_row list;
  metrics : Beast_obs.Metrics.snapshot option;
      (** recorded metrics (histograms/counters/gauges) when the run had
          a registry installed; omitted from the JSON when [None] *)
  provenance : Provenance.summary option;
      (** single-pass pruning provenance when the run had a collector
          installed ([--explain-out]); omitted from the JSON when
          [None] *)
}

val of_stats :
  plan:Plan.t -> ?run_id:string -> ?shard:shard ->
  ?metrics:Beast_obs.Metrics.snapshot ->
  ?provenance:Provenance.summary ->
  Engine.stats -> t
(** Tag engine statistics with the plan's constraint metadata. [plan]
    must be the {e unchunked} plan (a chunked plan with no loops may
    have dropped its depth-0 steps). [shard] defaults to {!unsharded}. *)

val to_stats : t -> Engine.stats
(** Back to engine statistics, e.g. for {!Engine.pp_stats}. *)

val constraint_rows : plan:Plan.t -> Engine.stats -> constraint_row list
(** The per-constraint rows of {!of_stats}: each fired count tagged
    with its class and the plan's depth-0 placement. A {!Checkpoint}
    header takes the rows of [Engine.empty_stats plan]. *)

val row_fields : constraint_row -> (string * Beast_obs.Jsonx.t) list
(** A row's [name], [class] and [depth0] members: all a checkpoint
    header row holds; a stats file appends [fired]. *)

val row_of_jsonx : Beast_obs.Jsonx.t -> constraint_row
(** Reads the members {!row_fields} writes, with [cr_fired = 0].
    Raises [Beast_obs.Jsonx.Error] on a malformed row. *)

val to_jsonx : t -> Beast_obs.Jsonx.t
(** Fixed key order, no timestamps: equal values encode to equal
    bytes. The payload shape {!Beast_obs.Archive.ingest} consumes when
    a sweep archives itself. *)

val to_json : t -> string
(** [Jsonx.pretty (to_jsonx t)]: the bytes of a stats file. *)

val of_json : string -> (t, string) result
val of_file : string -> (t, string) result
val write_file : string -> t -> unit
(** Atomic, through {!Beast_obs.Jsonx.write_file}. *)

val merge : t list -> (t, string) result
(** Recombine a complete shard set: every input must describe the same
    space, constraint list and split arity [N], and the indices must
    cover [0..N-1] exactly once. Totals and non-depth-0 fired counts
    sum; depth-0 fired counts keep a single shard's value
    ({!Engine.merge_blocks}, the rule the chunk ledger uses). The
    result is an {!unsharded} record, so [to_json (merge shards)]
    equals the unsharded sweep's file byte-for-byte.

    Metric snapshots merge by bucket-wise pooling (lossless for the
    log-bucketed histograms), giving exact fleet-level percentiles; it
    is an error if only some shards carry metrics.

    Provenance summaries merge with {!Provenance.merge_summaries}
    (removal counts and depth entries sum, survivor-density cells union
    by outer value), so merged shard provenance is byte-identical to an
    unsharded instrumented run's; it is an error if only some shards
    carry provenance. *)
