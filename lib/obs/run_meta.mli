(** Run manifests: one small JSON file per instrumented run.

    A manifest is written into the runs directory when a run starts
    (status [Running]) and atomically rewritten at exit with the
    outcome, the process exit code and the wall time — so every
    artifact the run left behind (stats, checkpoint, trace, status
    file, flight dump) correlates through the run id, and a run that
    died can be told apart from one still executing.

    [beast runs] lists and inspects these files; the id itself is
    stamped into checkpoints, heartbeat status files, trace metadata
    and (on request) stats files. *)

type status =
  | Running
  | Completed
  | Interrupted  (** stopped by SIGINT/SIGTERM, resumable *)
  | Crashed  (** uncaught exception or injected fault *)

val status_name : status -> string
val status_of_name : string -> status option

type t = {
  run_id : string;
  space : string;
  shard : (int * int) option;  (** [(index, of)] when the run is sharded *)
  engine : string;  (** "parallel", "staged", ... *)
  pid : int;
  status : status;
  exit_code : int option;  (** set by {!finalize} *)
  wall_s : float option;  (** set by {!finalize} *)
}

val fresh_id : seed:string -> unit -> string
(** A 12-hex-char run id: MD5 of [seed] (content: space digest + shard
    coords) salted with a monotonic-clock nonce and the pid, so two
    shards of one sweep — or two runs of the same shard — never
    collide. *)

val make :
  run_id:string -> space:string -> ?shard:int * int -> engine:string ->
  unit -> t
(** A fresh [Running] manifest for this process. *)

val path : dir:string -> t -> string
(** [dir/<run_id>.json]. *)

val save : dir:string -> t -> unit
(** Write the manifest atomically ({!Jsonx.write_file}), creating [dir]
    if needed. *)

val finalize :
  dir:string -> t -> status:status -> exit_code:int -> wall_s:float -> t
(** Rewrite with the final status; returns the finalized record. *)

val to_jsonx : t -> Jsonx.t
val of_json : string -> (t, string) result
val of_file : string -> (t, string) result

val list : dir:string -> t list
(** All parseable manifests in [dir], sorted by run id. An absent
    directory is an empty list. *)

val entries : dir:string -> (string * (t, string) result) list
(** Every [*.json] file in [dir] with its parse outcome, path included,
    filename-sorted. Lets [beast runs]/[beast top] warn about (and
    [--prune] collect) unreadable manifests instead of silently
    dropping them; {!list} is the [Ok]-only projection. *)
