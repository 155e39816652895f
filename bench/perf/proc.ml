(* Child processes, one at a time, through the spawner (spawner.c): it
   starts each one, waits under a timeout, and reports its exit, CPU
   time and peak resident set. *)

type outcome = {
  code : int;  (** exit status, or minus the signal that killed it *)
  timed_out : bool;
  cpu_s : float;  (** user + system, including the children it reaped *)
  maxrss_kb : int;
}

type spawner = {
  pid : int;
  requests : out_channel;
  replies : in_channel;
}

let start path =
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let rep_r, rep_w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process path [| path |] req_r rep_w Unix.stderr in
  Unix.close req_r;
  Unix.close rep_w;
  {
    pid;
    requests = Unix.out_channel_of_descr req_w;
    replies = Unix.in_channel_of_descr rep_r;
  }

(* Ends the spawner's input, then waits for it to exit. *)
let stop s =
  close_out s.requests;
  close_in s.replies;
  ignore (Unix.waitpid [] s.pid)

let run s ~timeout_s ~stdout ~stderr argv =
  let fields =
    [
      string_of_int (int_of_float (timeout_s *. 1000.0));
      stdout;
      stderr;
      string_of_int (Array.length argv);
    ]
    @ Array.to_list argv
  in
  List.iter
    (fun f ->
      output_string s.requests f;
      output_char s.requests '\000')
    fields;
  flush s.requests;
  let reply = input_line s.replies in
  match String.split_on_char ' ' reply with
  | [ code; timed_out; cpu; rss ] ->
    {
      code = int_of_string code;
      timed_out = timed_out = "1";
      cpu_s = float_of_string cpu;
      maxrss_kb = int_of_string rss;
    }
  | _ -> failwith ("spawner: malformed reply " ^ reply)

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> Some s
  | exception Sys_error _ -> None

let write_file path contents =
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc contents)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let fresh_dir path =
  rm_rf path;
  mkdir_p path
