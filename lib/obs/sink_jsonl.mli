(** JSONL event log: one JSON object per line, one line per event.

    The schema is the {!Obs.event} record spelled out —
    [{"name":..,"cat":..,"kind":..,"ts_ns":..,"dom":..,("dur_ns"|"value")?,"args"?}] —
    grep/jq-friendly and stable for downstream tooling. *)

val write_event : Buffer.t -> Obs.event -> unit

val args_object : Buffer.t -> (string * Obs.arg) list -> unit
(** An event's args as a flat JSON object (shared with {!Sink_chrome}). *)

val write : out_channel -> Obs.event array -> unit

val parse_line : string -> (Obs.event, string) result
(** Inverse of {!write_event}, for one line. *)

val read_file : string -> (Obs.event array, string) result
(** Read a whole JSONL trace back in emission order (blank lines are
    skipped; the error names the file and line). Cross-shard merging
    ([beast merge --traces]) reads per-shard logs through this. *)
