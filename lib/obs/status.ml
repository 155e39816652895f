(* The run record: one small JSON file per instrumented run, written at
   start, rewritten by the tally heartbeat at most once per interval and
   finalized once with the outcome. Writes are atomic (Jsonx.write_file),
   so `beast top`, `beast runs` or a wrapper script reading the file at
   any instant sees a complete, parseable document. *)

(* Version 1 of "beast_run" was the start/exit-only manifest; its files
   are foreign to this build and read as unreadable. *)
let format_version = 2

type state =
  | Running
  | Completed
  | Interrupted
  | Crashed

let state_name = function
  | Running -> "running"
  | Completed -> "completed"
  | Interrupted -> "interrupted"
  | Crashed -> "crashed"

type record = {
  state : state;
  run_id : string;
  space : string;
  shard : (int * int) option;
  engine : string;
  pid : int;
  exit_code : int option;
  elapsed_s : float;
  chunks_done : int;
  chunks_total : int;
  points : int;
  survivors : int;
  points_per_s : float;
  survivor_rate : float;
  eta_s : float option;
  checkpoint_age_s : float option;
  domains : (int * int * int) list;
}

let fresh_id ~seed () =
  let salted =
    Printf.sprintf "%s|%d|%d" seed (Clock.now_ns ()) (Unix.getpid ())
  in
  String.sub (Digest.to_hex (Digest.string salted)) 0 12

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)
(* ------------------------------------------------------------------ *)

let to_jsonx r =
  let float_or_null = function None -> Jsonx.Null | Some v -> Jsonx.Float v in
  Jsonx.Obj
    ([
       ("beast_run", Jsonx.Int format_version);
       ("state", Jsonx.Str (state_name r.state));
       ("run_id", Jsonx.Str r.run_id);
       ("space", Jsonx.Str r.space);
     ]
    @ Jsonx.optional "shard"
        (fun (i, n) ->
          Jsonx.Obj [ ("index", Jsonx.Int i); ("of", Jsonx.Int n) ])
        r.shard
    @ [ ("engine", Jsonx.Str r.engine); ("pid", Jsonx.Int r.pid) ]
    @ Jsonx.optional "exit_code" (fun c -> Jsonx.Int c) r.exit_code
    @ [
        ("elapsed_s", Jsonx.Float r.elapsed_s);
        ( "chunks",
          Jsonx.Obj
            [
              ("done", Jsonx.Int r.chunks_done);
              ("total", Jsonx.Int r.chunks_total);
            ] );
        ("points", Jsonx.Int r.points);
        ("survivors", Jsonx.Int r.survivors);
        ("points_per_s", Jsonx.Float r.points_per_s);
        ("survivor_rate", Jsonx.Float r.survivor_rate);
        ("eta_s", float_or_null r.eta_s);
        ("checkpoint_age_s", float_or_null r.checkpoint_age_s);
        ( "domains",
          Jsonx.Arr
            (List.map
               (fun (d, points, survivors) ->
                 Jsonx.Obj
                   [
                     ("dom", Jsonx.Int d);
                     ("points", Jsonx.Int points);
                     ("survivors", Jsonx.Int survivors);
                   ])
               r.domains) );
      ])

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)
(* ------------------------------------------------------------------ *)

let fail = Jsonx.fail

let decode json =
  (match Jsonx.member_opt "beast_run" json with
  | None -> fail "not a run record (missing \"beast_run\" tag)"
  | Some v ->
    let version = Jsonx.to_int "beast_run" v in
    if version <> format_version then
      fail "unsupported run record format version %d (this build reads %d)"
        version format_version);
  let field name to_ = to_ name (Jsonx.member name json) in
  let opt_field name to_ =
    match Jsonx.member_opt name json with
    | None | Some Jsonx.Null -> None
    | Some v -> Some (to_ name v)
  in
  let state =
    let name = field "state" Jsonx.to_str in
    match
      List.find_opt
        (fun s -> state_name s = name)
        [ Running; Completed; Interrupted; Crashed ]
    with
    | Some s -> s
    | None -> fail "unknown run state %S" name
  in
  let chunks = Jsonx.member "chunks" json in
  {
    state;
    run_id = field "run_id" Jsonx.to_str;
    space = field "space" Jsonx.to_str;
    shard =
      Option.map
        (fun s ->
          ( Jsonx.to_int "index" (Jsonx.member "index" s),
            Jsonx.to_int "of" (Jsonx.member "of" s) ))
        (Jsonx.member_opt "shard" json);
    engine = field "engine" Jsonx.to_str;
    pid = field "pid" Jsonx.to_int;
    exit_code = opt_field "exit_code" Jsonx.to_int;
    elapsed_s = field "elapsed_s" Jsonx.to_float;
    chunks_done = Jsonx.to_int "done" (Jsonx.member "done" chunks);
    chunks_total = Jsonx.to_int "total" (Jsonx.member "total" chunks);
    points = field "points" Jsonx.to_int;
    survivors = field "survivors" Jsonx.to_int;
    points_per_s = field "points_per_s" Jsonx.to_float;
    survivor_rate = field "survivor_rate" Jsonx.to_float;
    eta_s = opt_field "eta_s" Jsonx.to_float;
    checkpoint_age_s = opt_field "checkpoint_age_s" Jsonx.to_float;
    domains =
      List.map
        (fun row ->
          ( Jsonx.to_int "dom" (Jsonx.member "dom" row),
            Jsonx.to_int "points" (Jsonx.member "points" row),
            Jsonx.to_int "survivors" (Jsonx.member "survivors" row) ))
        (field "domains" Jsonx.to_list);
  }

let of_json text = Jsonx.decode ~what:"run record" decode (Jsonx.parse text)
let of_file file = Jsonx.decode ~what:"run record" decode (Jsonx.of_file file)

let entries ~dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".json")
    |> List.sort String.compare
    |> List.map (fun f ->
           let file = Filename.concat dir f in
           (file, of_file file))

(* ------------------------------------------------------------------ *)
(* Writing                                                             *)
(* ------------------------------------------------------------------ *)

type t = {
  tally : Tally.t;
  path : string;
  ident : record;  (* identity fields; the counts are filled per write *)
  checkpoint_path : string option;
  mutable finalized : bool;
}

let path t = t.path

let checkpoint_age_s t =
  match t.checkpoint_path with
  | None -> None
  | Some p -> (
    match Unix.stat p with
    | st -> Some (Float.max 0.0 (Unix.gettimeofday () -. st.Unix.st_mtime))
    | exception Unix.Unix_error _ -> None)

(* The temp name carries the pid, so two runs given one record path
   (the same --run-id twice) cannot corrupt each other's rename. *)
let write t ~state ?exit_code (s : Tally.snapshot) =
  let r =
    {
      t.ident with
      state;
      exit_code;
      elapsed_s = s.elapsed_s;
      chunks_done = s.chunks_done;
      chunks_total = s.chunks_total;
      points = s.points;
      survivors = s.survivors;
      points_per_s =
        (if s.elapsed_s > 0.0 then float_of_int s.points /. s.elapsed_s
         else 0.0);
      survivor_rate =
        (if s.points > 0 then
           float_of_int s.survivors /. float_of_int s.points
         else 0.0);
      eta_s = s.eta_s;
      checkpoint_age_s = checkpoint_age_s t;
      domains = s.domains;
    }
  in
  Jsonx.write_file t.path (Jsonx.pretty (to_jsonx r))

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Unix.mkdir dir 0o755 with
    | Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    | Unix.Unix_error (e, _, _) ->
      raise (Sys_error (Printf.sprintf "%s: %s" dir (Unix.error_message e)))
  end

let create ?(interval_s = 1.0) ?shard ?checkpoint_path ~dir ~run_id ~space
    ~engine tally =
  if interval_s < 0.0 then
    invalid_arg "Status.create: interval must be non-negative";
  mkdir_p dir;
  let t =
    {
      tally;
      path = Filename.concat dir (run_id ^ ".json");
      ident =
        {
          state = Running;
          run_id;
          space;
          shard;
          engine;
          pid = Unix.getpid ();
          exit_code = None;
          elapsed_s = 0.0;
          chunks_done = 0;
          chunks_total = 0;
          points = 0;
          survivors = 0;
          points_per_s = 0.0;
          survivor_rate = 0.0;
          eta_s = None;
          checkpoint_age_s = None;
          domains = [];
        };
      checkpoint_path;
      finalized = false;
    }
  in
  Tally.draw tally (write t ~state:Running);
  Tally.watch tally ~every_s:interval_s (fun snap ->
      if not t.finalized then write t ~state:Running snap);
  t

let finalize t ~state ~exit_code =
  Tally.draw t.tally (fun snap ->
      if not t.finalized then begin
        t.finalized <- true;
        write t ~state ~exit_code snap
      end)
