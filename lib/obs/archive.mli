(** Cross-run performance archive: an append-only, content-addressed
    store of what every run did, so regressions are detected against
    the recorded trajectory instead of a frozen baseline file.

    One deterministic JSON record per ingested result lives under the
    archive directory ([$BEAST_ARCHIVE], default [.beast/archive]),
    written atomically ({!Jsonx.write_file}). A record wraps a
    {e payload} — a [Stats_io] sweep-statistics file (funnel, constraint
    provenance, metrics snapshot) or a JSON object with a [bench] field —
    plus identity metadata (engine spec, run id, git commit, host) and
    the numeric {e series} extracted from the payload (survivor counts,
    per-constraint fire counts, histogram quantiles, bench timings).

    Records carry no wall-clock timestamp: the id is a content digest
    over kind, label, identity fields and the canonical payload bytes
    ({!Jsonx.to_string}), so re-ingesting identical content dedupes,
    and byte-identical runs archived on the same host compare equal.
    Ordering comes from a monotonic per-archive sequence number
    assigned at ingest. [beast diff] compares two records series-wise;
    [beast trends] runs median/MAD change-point detection over a
    record timeline. *)

val format_version : int

type meta = {
  a_id : string;  (** 12-hex content digest; also the record filename *)
  a_seq : int;  (** ingest order within the archive, from 1 *)
  a_kind : string;  (** ["stats"] or ["bench"] *)
  a_label : string;  (** space name or bench name *)
  a_engine : string option;
  a_run_id : string option;
  a_commit : string option;
  a_host : string option;
}

type record = {
  meta : meta;
  series : (string * float) list;
      (** name-sorted numeric series extracted from the payload *)
  payload : Jsonx.t;
}

(** {2 Locating the archive} *)

val default_dir : unit -> string
(** [$BEAST_ARCHIVE] when set, else [.beast/archive]. *)

val commit_from_env : unit -> string option
(** [$BEAST_COMMIT], falling back to [$GITHUB_SHA] (CI), else [None].
    Reading the environment instead of executing [git] keeps ingest
    dependency-free and deterministic under test. *)

(** {2 Building records} *)

val make :
  seq:int -> ?engine:string -> ?run_id:string -> ?commit:string ->
  ?host:string -> Jsonx.t -> (record, string) result
(** Classify a payload and extract its series. A payload with a
    ["bench"] string field is a bench result labelled by that field;
    one with ["space"]/["survivors"]/["constraints"] is a sweep
    statistics file labelled by the space (its embedded [run_id], when
    present, wins over the [?run_id] override). Anything else —
    including an existing archive record — is an error. *)

val ingest :
  dir:string -> ?engine:string -> ?run_id:string -> ?commit:string ->
  ?host:string -> Jsonx.t -> (record * bool, string) result
(** Append to the archive: assign the next sequence number and write
    [dir/<id>.json] atomically. Returns [(record, fresh)]; [fresh] is
    [false] when a record with the same content id already exists (the
    existing record is returned untouched). *)

(** {2 Reading} *)

val to_jsonx : record -> Jsonx.t
(** Written with {!Jsonx.pretty}; the payload's members nest one per
    line, but the id still hashes the compact {!Jsonx.to_string} form,
    so a record written on one line loads and verifies the same. *)

val of_jsonx : Jsonx.t -> (record, string) result
val of_json : string -> (record, string) result
(** [of_jsonx] and [of_json] revalidate: the id and the series are
    recomputed from the stored payload and must match, so a tampered or
    truncated record is rejected with a diagnostic, not silently
    trusted. *)

val of_file : string -> (record, string) result

val load : dir:string -> record list * (string * string) list
(** All records in [dir] sorted by (seq, id), plus [(file, error)] for
    every record that failed to parse or validate. An absent directory
    is [([], [])]. *)

val find : dir:string -> string -> (record, string) result
(** Resolve a record by unique id prefix. *)

(** {2 Diff} *)

type flag =
  | Same
  | Changed  (** deterministic count series differs *)
  | Regressed  (** timing series grew beyond the threshold *)
  | Only_a
  | Only_b  (** series present on one side only *)

type delta = {
  d_name : string;
  d_timing : bool;
  d_a : float option;
  d_b : float option;
  d_flag : flag;
}

val series_is_timing : string -> bool
(** Timing-like series tolerate jitter up to the diff threshold and
    gate only on growth; everything else is a deterministic count that
    flags on any change. Classified by name: [_s]/[_ms]/[_us]/[_ns]/
    [_pct] suffixes and histogram-derived [/p50] [/p95] [/p99] [/mean]
    components are timing. *)

val diff : ?threshold_pct:float -> record -> record -> delta list
(** Name-sorted union of both records' series; [threshold_pct]
    (default 10) is the allowed timing growth from A to B. *)

val regressions : delta list -> delta list
(** The deltas that make a diff fail: [Regressed], [Changed], and
    series present on only one side. *)

(** {2 Trends} *)

type point = { p_seq : int; p_commit : string option; p_value : float }

type shift = {
  c_index : int;  (** first point of the after-segment *)
  c_before : float;  (** median of the before-segment *)
  c_after : float;  (** median of the after-segment *)
}

type trend = {
  t_name : string;
  t_timing : bool;
  t_points : point list;  (** seq-ordered *)
  t_median : float;
  t_mad : float;
  t_shift : shift option;
}

type group = {
  g_kind : string;
  g_label : string;
  g_engine : string option;
  g_records : int;
  g_trends : trend list;
}

val median : float array -> float
val mad : float array -> float
(** Median absolute deviation from the median (unscaled). *)

val change_point : float array -> shift option
(** Robust two-segment change-point detection: over splits leaving at
    least two points per side, pick the one maximizing the distance
    between segment medians; flag it when that distance exceeds three
    times the mean absolute deviation of the points around their own
    segment's median, plus a small relative floor. Needs four points;
    a constant or merely noisy series yields [None]. *)

val trends : ?series_prefix:string -> record list -> group list
(** Group records by (kind, label, engine) and build the per-series
    timeline of every group with at least one point, seq-ordered.
    [series_prefix] filters series by name prefix. *)
