(* Heartbeat status file: a small deterministic JSON snapshot of a
   running sweep, atomically rewritten (temp-then-rename, the
   Checkpoint discipline) at most once per interval. Anything on the
   machine — `beast top`, a wrapper script, a future `beast serve`
   worker poller — can read the file at any instant and always sees a
   complete, parseable document. The figures come from the run's tally,
   the same one the terminal progress line draws. *)

type t = {
  tally : Tally.t;
  path : string;
  run_id : string option;
  space : string option;
  shard : (int * int) option;
  checkpoint_path : string option;
  pid : int;
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

let render t ~state (s : Tally.snapshot) =
  let rate =
    if s.elapsed_s > 0.0 then float_of_int s.points /. s.elapsed_s else 0.0
  in
  let survivor_rate =
    if s.points > 0 then float_of_int s.survivors /. float_of_int s.points
    else 0.0
  in
  let buf = Buffer.create 512 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let str s = Trace_json.escape buf s in
  let flt f = Trace_json.float buf f in
  let opt_float name = function
    | None -> add ",\n  \"%s\": null" name
    | Some v ->
      add ",\n  \"%s\": " name;
      flt v
  in
  add "{\n";
  add "  \"beast_status\": 1,\n";
  add "  \"state\": \"%s\",\n" state;
  (match t.run_id with
  | None -> ()
  | Some id ->
    add "  \"run_id\": ";
    str id;
    add ",\n");
  (match t.space with
  | None -> ()
  | Some sp ->
    add "  \"space\": ";
    str sp;
    add ",\n");
  (match t.shard with
  | None -> ()
  | Some (i, n) -> add "  \"shard\": { \"index\": %d, \"of\": %d },\n" i n);
  add "  \"pid\": %d,\n" t.pid;
  add "  \"elapsed_s\": ";
  flt s.elapsed_s;
  add ",\n  \"chunks\": { \"done\": %d, \"total\": %d }" s.chunks_done
    s.chunks_total;
  add ",\n  \"points\": %d" s.points;
  add ",\n  \"survivors\": %d" s.survivors;
  add ",\n  \"points_per_s\": ";
  flt rate;
  add ",\n  \"survivor_rate\": ";
  flt survivor_rate;
  opt_float "eta_s" s.eta_s;
  opt_float "checkpoint_age_s" (checkpoint_age_s t);
  add ",\n  \"domains\": [";
  List.iteri
    (fun i (d, points, survivors) ->
      add "%s\n    { \"dom\": %d, \"points\": %d, \"survivors\": %d }"
        (if i = 0 then "" else ",")
        d points survivors)
    s.domains;
  if s.domains <> [] then add "\n  ";
  add "]\n}\n";
  Buffer.contents buf

(* Temp-then-rename so a reader never sees a torn snapshot; the temp
   name carries the pid so two runs pointed at one status path (a
   configuration mistake) cannot corrupt each other's rename. *)
let write t ~state snap =
  let text = render t ~state snap in
  let tmp = Printf.sprintf "%s.%d.tmp" t.path t.pid in
  let oc = open_out_bin tmp in
  (try
     output_string oc text;
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp t.path

let create ?(interval_s = 1.0) ?run_id ?space ?shard ?checkpoint_path ~path
    tally =
  if interval_s < 0.0 then
    invalid_arg "Status.create: interval must be non-negative";
  let t =
    {
      tally;
      path;
      run_id;
      space;
      shard;
      checkpoint_path;
      pid = Unix.getpid ();
      finalized = false;
    }
  in
  Tally.watch tally ~every_s:interval_s (fun snap ->
      if not t.finalized then write t ~state:"running" snap);
  t

let finalize t ~state =
  Tally.draw t.tally (fun snap ->
      if not t.finalized then begin
        t.finalized <- true;
        write t ~state snap
      end)

(* ------------------------------------------------------------------ *)
(* Reading (beast top, tests)                                          *)
(* ------------------------------------------------------------------ *)

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
  v_domains : (int * int * int) list;  (* dom, points, survivors *)
}

let fail fmt = Printf.ksprintf (fun msg -> raise (Jsonx.Error msg)) fmt

let decode json =
  (match Jsonx.member_opt "beast_status" json with
  | None -> fail "not a status file (missing \"beast_status\" tag)"
  | Some v ->
    let version = Jsonx.to_int "beast_status" v in
    if version <> 1 then
      fail "unsupported status format version %d (this build reads 1)" version);
  let opt_float name =
    match Jsonx.member_opt name json with
    | None | Some Jsonx.Null -> None
    | Some v -> Some (Jsonx.to_float name v)
  in
  let chunks = Jsonx.member "chunks" json in
  {
    v_state = Jsonx.to_str "state" (Jsonx.member "state" json);
    v_run_id = Option.map (Jsonx.to_str "run_id") (Jsonx.member_opt "run_id" json);
    v_space = Option.map (Jsonx.to_str "space") (Jsonx.member_opt "space" json);
    v_shard =
      Option.map
        (fun s ->
          ( Jsonx.to_int "index" (Jsonx.member "index" s),
            Jsonx.to_int "of" (Jsonx.member "of" s) ))
        (Jsonx.member_opt "shard" json);
    v_pid = Jsonx.to_int "pid" (Jsonx.member "pid" json);
    v_elapsed_s = Jsonx.to_float "elapsed_s" (Jsonx.member "elapsed_s" json);
    v_chunks_done = Jsonx.to_int "done" (Jsonx.member "done" chunks);
    v_chunks_total = Jsonx.to_int "total" (Jsonx.member "total" chunks);
    v_points = Jsonx.to_int "points" (Jsonx.member "points" json);
    v_survivors = Jsonx.to_int "survivors" (Jsonx.member "survivors" json);
    v_points_per_s =
      Jsonx.to_float "points_per_s" (Jsonx.member "points_per_s" json);
    v_survivor_rate =
      Jsonx.to_float "survivor_rate" (Jsonx.member "survivor_rate" json);
    v_eta_s = opt_float "eta_s";
    v_checkpoint_age_s = opt_float "checkpoint_age_s";
    v_domains =
      List.map
        (fun row ->
          ( Jsonx.to_int "dom" (Jsonx.member "dom" row),
            Jsonx.to_int "points" (Jsonx.member "points" row),
            Jsonx.to_int "survivors" (Jsonx.member "survivors" row) ))
        (Jsonx.to_list "domains" (Jsonx.member "domains" json));
  }

let of_json text =
  match Jsonx.parse text with
  | Error msg -> Error (Printf.sprintf "status: %s" msg)
  | Ok json -> (
    try Ok (decode json)
    with Jsonx.Error msg -> Error (Printf.sprintf "status: %s" msg))

let of_file file =
  match
    let ic = open_in_bin file in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error msg -> Error (Printf.sprintf "status: %s" msg)
  | text -> of_json text
