(** Dependency-free metrics registry: histograms, counters, gauges.

    Histograms are log-bucketed (HDR scheme): each power-of-two octave
    is split into [sub = 8] sub-buckets, so recording is constant-time
    (highest-set-bit plus two increments) and the relative bucket width
    is at most 1/8. The bucket grid is fixed and value-independent,
    which makes bucket-wise addition of two histograms exactly the
    histogram of the pooled samples — shard merges are lossless.

    Recording writes into per-domain cells ({!cell_for}, which
    {!Recorder} shares; no locks on the hot path); the registry mutex is
    only taken on a domain's first touch of a metric and when
    snapshotting. A run's
    registry is the [metrics] field of its {!Obs.ctx}. *)

(** {2 Bucket grid} *)

val sub : int
(** Sub-buckets per power-of-two octave (8). *)

val n_buckets : int

val bucket_of_value : int -> int
(** Constant-time bucket index for a non-negative value. *)

val bucket_bounds : int -> int * int
(** Half-open value range [\[lo, hi)] covered by a bucket index. *)

(** {2 Live metrics} *)

type histogram
type counter
type gauge

val record : histogram -> int -> unit
(** Record one sample. Negative values clamp to 0. *)

val add : counter -> int -> unit
val incr : counter -> unit
val set_gauge : gauge -> float -> unit

val cell_for :
  mutex:Mutex.t ->
  cells:(int, 'a) Hashtbl.t ->
  key:'a option Domain.DLS.key ->
  make:(unit -> 'a) ->
  'a
(** The calling domain's cell: cached in [key] after the first call;
    else found in, or [make]d and added to, [cells] (keyed by domain id)
    under [mutex]. *)

(** {2 Registry} *)

type t

val create : unit -> t

val histogram :
  t -> ?unit_:string -> name:string -> labels:(string * string) list ->
  unit -> histogram
(** Get-or-create, keyed by [name] plus sorted [labels]. Raises
    [Invalid_argument] if the key already names a different metric
    kind. *)

val counter :
  t -> ?unit_:string -> name:string -> labels:(string * string) list ->
  unit -> counter

val gauge :
  t -> ?unit_:string -> name:string -> labels:(string * string) list ->
  unit -> gauge

(** {2 Snapshots} *)

type hist_snapshot = {
  s_sub : int;  (** sub-buckets per octave, for merge compatibility *)
  s_count : int;
  s_sum : int;
  s_buckets : (int * int) list;
      (** sparse (bucket index, count), index-sorted, counts > 0 *)
}

type mvalue =
  | Vhist of hist_snapshot
  | Vcounter of int
  | Vgauge of float

type item = {
  name : string;
  labels : (string * string) list;  (** sorted by label name *)
  unit_ : string;  (** [""] when unspecified *)
  value : mvalue;
}

type snapshot = item list
(** Sorted by (name, labels); deterministic for a given set of recorded
    values. *)

val snapshot : t -> snapshot

module Snapshot : sig
  type t = snapshot

  val empty : t
  val equal : t -> t -> bool

  (** {3 Statistics} *)

  val quantile : hist_snapshot -> float -> float
  (** Interpolated quantile estimate ([0.] = min bound, [1.] = max);
      [nan] on an empty histogram. Error bounded by the bucket width
      (<= 12.5% relative). *)

  val mean : hist_snapshot -> float
  (** Exact ([s_sum/s_count]); [nan] on an empty histogram. *)

  val max_bound : hist_snapshot -> int
  (** Upper bound of the highest occupied bucket (0 when empty). *)

  (** {3 Merging} *)

  val merge : t list -> (t, string) result
  (** Union by (name, labels): histogram buckets and counters add —
      for histograms this is exactly the pooled-sample histogram;
      gauges keep the maximum. Errors on kind or bucket-grid
      mismatches. *)

  (** {3 Selection} *)

  val find : t -> name:string -> labels:(string * string) list -> item option
  val histograms : t -> name:string -> ((string * string) list * hist_snapshot) list

  (** {3 Serialization} *)

  val to_jsonx : t -> Jsonx.t
  (** Deterministic JSON array of items (sorted items, sorted labels,
      fixed key order). *)

  val of_jsonx : Jsonx.t -> (t, string) result

  val to_prometheus : t -> string
  (** Prometheus text exposition: cumulative [_bucket{le=...}] series
      plus [_sum]/[_count] for histograms. *)
end
