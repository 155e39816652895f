(** Resumable-sweep snapshots.

    A checkpoint is the work-stealing scheduler's chunk ledger as a
    file: which chunks of an [n_chunks]-way split have completed, each
    one's stats partial, and the metrics histograms accumulated so far
    (bucket for bucket). Chunk merging is commutative and associative,
    so a resumed run that replays the ledger and sweeps only the missing
    chunks writes byte-identical [--stats-out] output to an
    uninterrupted run.

    Files are written atomically (write-temp-then-rename): a kill during
    {!save} leaves the previous complete checkpoint, never a truncated
    one. The JSON carries a [beast_checkpoint] version tag so future
    format changes are rejected with a diagnostic instead of parsed as
    garbage. *)

type chunk = {
  c_id : int;
  c_survivors : int;
  c_loop_iterations : int;
  c_fired : int array;  (** per-constraint fired counts, plan order *)
}

type t = {
  space : string;
  run_id : string option;
      (** id of the run that wrote the snapshot, when it had one; purely
          informational — {!validate} ignores it, since a resume is by
          definition a different run *)
  shard : Stats_io.shard;  (** the split this run was a shard of *)
  n_chunks : int;  (** arity of the chunk split being checkpointed *)
  constraints : Stats_io.constraint_row list;
      (** name, class, depth-0 flag ({!Stats_io.constraint_rows}, with
          [cr_fired = 0]) — must match the plan on resume *)
  chunks : chunk list;  (** completed chunks, sorted by [c_id] *)
  metrics : Beast_obs.Metrics.snapshot option;
}

val make :
  plan:Plan.t ->
  ?run_id:string ->
  shard:Stats_io.shard ->
  n_chunks:int ->
  ?metrics:Beast_obs.Metrics.snapshot ->
  (int * Engine.stats) list ->
  t
(** Snapshot a ledger of [(chunk id, per-chunk stats)] pairs. [plan]
    must be the plan the chunk split was derived from (its constraint
    metadata is what {!validate} checks on resume). *)

val completed_ids : t -> int list
(** Ids of the completed chunks, ascending. *)

val chunk_stats : t -> (int * Engine.stats) list
(** The ledger back as per-chunk engine statistics, ascending by id. *)

val to_jsonx : t -> Beast_obs.Jsonx.t
(** Deterministic encoding: fixed key order, no timestamps. *)

val of_json : string -> (t, string) result
(** Parse and structurally validate: version tag, [n_chunks >= 1],
    unique in-range chunk ids, fired-count arity. Errors are prefixed
    ["checkpoint: "]. *)

val of_file : string -> (t, string) result

val run_metrics : t option -> Beast_obs.Metrics.snapshot option
(** The whole logical run's metrics: the snapshot the resumed
    checkpoint carried over, pooled bucket-wise with the installed
    registry's live snapshot (either one alone when the other is
    absent). What a resumed run writes to its checkpoints and its
    stats file. *)

val save : string -> t -> unit
(** Atomic write through {!Beast_obs.Jsonx.write_file}. *)

val validate : plan:Plan.t -> shard:Stats_io.shard -> t -> (unit, string) result
(** Check that a loaded checkpoint belongs to this run: same space name,
    same shard of the same split, same constraint list (names, classes
    and depth-0 placement). *)
