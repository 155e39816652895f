(* Run manifests: one small JSON file per instrumented run, written at
   start (status "running") and rewritten at exit with the outcome, so
   every artifact a run leaves behind (stats, checkpoint, trace, status
   file, flight dump) can be correlated through the run id and a dead
   run is distinguishable from a live one.

   The id is a content hash (caller-supplied seed: space digest + shard
   coords) salted with a monotonic-clock nonce and the pid, so two
   shards of one sweep — or two runs of the same shard — never collide.
   Writes are atomic (Jsonx.write_file). *)

let format_version = 1

type status =
  | Running
  | Completed
  | Interrupted
  | Crashed

let status_name = function
  | Running -> "running"
  | Completed -> "completed"
  | Interrupted -> "interrupted"
  | Crashed -> "crashed"

let status_of_name = function
  | "running" -> Some Running
  | "completed" -> Some Completed
  | "interrupted" -> Some Interrupted
  | "crashed" -> Some Crashed
  | _ -> None

type t = {
  run_id : string;
  space : string;
  shard : (int * int) option;
  engine : string;
  pid : int;
  status : status;
  exit_code : int option;
  wall_s : float option;
}

let fresh_id ~seed () =
  let salted =
    Printf.sprintf "%s|%d|%d" seed (Clock.now_ns ()) (Unix.getpid ())
  in
  String.sub (Digest.to_hex (Digest.string salted)) 0 12

let make ~run_id ~space ?shard ~engine () =
  {
    run_id;
    space;
    shard;
    engine;
    pid = Unix.getpid ();
    status = Running;
    exit_code = None;
    wall_s = None;
  }

let path ~dir t = Filename.concat dir (t.run_id ^ ".json")

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)
(* ------------------------------------------------------------------ *)

let to_jsonx t =
  Jsonx.Obj
    ([
       ("beast_run", Jsonx.Int format_version);
       ("run_id", Jsonx.Str t.run_id);
       ("space", Jsonx.Str t.space);
     ]
    @ Jsonx.optional "shard"
        (fun (i, n) ->
          Jsonx.Obj [ ("index", Jsonx.Int i); ("of", Jsonx.Int n) ])
        t.shard
    @ [
        ("engine", Jsonx.Str t.engine);
        ("pid", Jsonx.Int t.pid);
        ("status", Jsonx.Str (status_name t.status));
      ]
    @ Jsonx.optional "exit_code" (fun c -> Jsonx.Int c) t.exit_code
    @ Jsonx.optional "wall_s" (fun w -> Jsonx.Float w) t.wall_s)

let mkdir_p dir =
  (* One level of parent creation is enough for the conventional
     "runs/" layout; deeper paths fall through to the final mkdir. *)
  let parent = Filename.dirname dir in
  if parent <> dir && parent <> "." && not (Sys.file_exists parent) then
    (try Unix.mkdir parent 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let save ~dir t =
  mkdir_p dir;
  Jsonx.write_file (path ~dir t) (Jsonx.pretty (to_jsonx t))

let finalize ~dir t ~status ~exit_code ~wall_s =
  let t = { t with status; exit_code = Some exit_code; wall_s = Some wall_s } in
  save ~dir t;
  t

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)
(* ------------------------------------------------------------------ *)

let fail = Jsonx.fail

let decode json =
  (match Jsonx.member_opt "beast_run" json with
  | None -> fail "not a run manifest (missing \"beast_run\" tag)"
  | Some v ->
    let version = Jsonx.to_int "beast_run" v in
    if version <> format_version then
      fail "unsupported manifest format version %d (this build reads %d)"
        version format_version);
  let shard =
    match Jsonx.member_opt "shard" json with
    | None -> None
    | Some s ->
      Some
        ( Jsonx.to_int "index" (Jsonx.member "index" s),
          Jsonx.to_int "of" (Jsonx.member "of" s) )
  in
  let status =
    let name = Jsonx.to_str "status" (Jsonx.member "status" json) in
    match status_of_name name with
    | Some s -> s
    | None -> fail "unknown run status %S" name
  in
  {
    run_id = Jsonx.to_str "run_id" (Jsonx.member "run_id" json);
    space = Jsonx.to_str "space" (Jsonx.member "space" json);
    shard;
    engine = Jsonx.to_str "engine" (Jsonx.member "engine" json);
    pid = Jsonx.to_int "pid" (Jsonx.member "pid" json);
    status;
    exit_code = Option.map (Jsonx.to_int "exit_code") (Jsonx.member_opt "exit_code" json);
    wall_s = Option.map (Jsonx.to_float "wall_s") (Jsonx.member_opt "wall_s" json);
  }

let of_json text = Jsonx.decode ~what:"manifest" decode (Jsonx.parse text)
let of_file file = Jsonx.decode ~what:"manifest" decode (Jsonx.of_file file)

let entries ~dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".json")
    |> List.sort String.compare
    |> List.map (fun f ->
           let file = Filename.concat dir f in
           (file, of_file file))

let list ~dir =
  entries ~dir
  |> List.filter_map (fun (_, r) ->
         match r with Ok t -> Some t | Error _ -> None)
