(** The run record: one small JSON file per instrumented run,
    [DIR/<run_id>.json].

    It is written when the run starts (state [Running], zero counts,
    which also probes the path), atomically rewritten (temp-then-rename)
    by the run's {!Tally} heartbeat at most once per interval, and
    finalized once with the outcome, the process exit code and the
    elapsed time. A reader sampling it at any instant sees a complete
    parseable document: [beast top] follows one record, [beast runs]
    lists a directory of them. The run id ties the record to every other
    artifact of the run (stats, checkpoint, trace, flight dump), and the
    pid tells a live run from one that died without finalizing.

    The counts — per-domain points and survivors, chunk figures,
    pruning-aware ETA — are the tally's, the same one the terminal
    {!Progress} line draws. *)

type state =
  | Running
  | Completed
  | Interrupted  (** stopped by SIGINT/SIGTERM, resumable *)
  | Crashed  (** uncaught exception or injected fault *)

val state_name : state -> string

type record = {
  state : state;
  run_id : string;
  space : string;
  shard : (int * int) option;  (** [(index, of)] when the run is sharded *)
  engine : string;  (** "parallel", "staged", ... *)
  pid : int;
  exit_code : int option;  (** set by {!finalize} *)
  elapsed_s : float;
  chunks_done : int;
  chunks_total : int;
  points : int;
  survivors : int;
  points_per_s : float;
  survivor_rate : float;
  eta_s : float option;
  checkpoint_age_s : float option;
  domains : (int * int * int) list;  (** [(dom, points, survivors)] *)
}

val to_jsonx : record -> Jsonx.t
val of_json : string -> (record, string) result
val of_file : string -> (record, string) result

val entries : dir:string -> (string * (record, string) result) list
(** Every [*.json] file in [dir] with its parse outcome, path included,
    filename-sorted, so [beast runs] can warn about (and [--prune]
    collect) unreadable files instead of silently dropping them. An
    absent directory has no entries. *)

val fresh_id : seed:string -> unit -> string
(** A 12-hex-char run id: MD5 of [seed] (space digest and shard coords)
    salted with a monotonic-clock nonce and the pid, so two shards of
    one sweep, or two runs of the same shard, never collide. *)

(** {2 Writing} *)

type t

val create :
  ?interval_s:float ->
  ?shard:int * int ->
  ?checkpoint_path:string ->
  dir:string ->
  run_id:string ->
  space:string ->
  engine:string ->
  Tally.t ->
  t
(** Create [dir] (and its missing parents), write the [Running] record
    and watch the tally. [interval_s] defaults to 1.0; 0 rewrites on
    every tick (tests). [checkpoint_path] is stat-ed at each write to
    report the age of the last checkpoint. Raises [Invalid_argument] on
    a negative interval, and [Sys_error] naming the path when [dir]
    cannot be created or the record cannot be written. *)

val path : t -> string
(** [dir/<run_id>.json]. *)

val finalize : t -> state:state -> exit_code:int -> unit
(** Write the last record with the outcome and exit code, bypassing the
    throttle. Idempotent: the first call wins and later ticks are
    ignored. *)
