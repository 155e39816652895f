(** Heartbeat status file for live run introspection.

    A small deterministic JSON snapshot of a running sweep, atomically
    rewritten (temp-then-rename, the same discipline as checkpoints) at
    most once per interval — so any reader, at any instant, sees a
    complete parseable document. [beast top] renders it; [beast serve]
    workers will publish it.

    A renderer over the run's {!Tally}, like {!Progress}: the per-domain
    point and survivor counts, chunk figures and pruning-aware ETA are
    the tally's. *)

type t

val create :
  ?interval_s:float ->
  ?run_id:string ->
  ?space:string ->
  ?shard:int * int ->
  ?checkpoint_path:string ->
  path:string ->
  Tally.t ->
  t
(** Watch the tally. [interval_s] defaults to 1.0; 0 rewrites on every
    tick (tests). [checkpoint_path] is stat-ed at each write to report
    the age of the last checkpoint. Raises [Invalid_argument] on a
    negative interval. *)

val path : t -> string

val finalize : t -> state:string -> unit
(** Write a last snapshot with the given state (["completed"],
    ["interrupted"], ["crashed"]), bypassing the throttle; idempotent —
    the first call wins and later ticks are ignored. *)

(** {2 Reading} *)

type view = {
  v_state : string;
  v_run_id : string option;
  v_space : string option;
  v_shard : (int * int) option;
  v_pid : int;
  v_elapsed_s : float;
  v_chunks_done : int;
  v_chunks_total : int;
  v_points : int;
  v_survivors : int;
  v_points_per_s : float;
  v_survivor_rate : float;
  v_eta_s : float option;
  v_checkpoint_age_s : float option;
  v_domains : (int * int * int) list;  (** [(dom, points, survivors)] *)
}

val of_json : string -> (view, string) result
val of_file : string -> (view, string) result
