(* The compiled tier: translate the plan to C (Codegen_c), compile it
   with the system compiler, run the binary as a subprocess and parse
   its stats lines back into Engine.stats. The binary is cached under a
   content hash of (source, compiler, flags), so only the first sweep of
   a space pays the compile; everything after is fork+exec.

   All failures — untranslatable plan, missing compiler, failed compile,
   crashed or garbled subprocess — are [Error of string] with a one-line
   message, never a raw exception trace: the CLI maps them to exit 2. *)

open Beast_obs

exception Error of string

let errorf fmt = Printf.ksprintf (fun s -> raise (Error ("native: " ^ s))) fmt

(* OCaml reports the signals it knows as negative constants; name them. *)
let signal_name s =
  match
    List.assoc_opt s
      Sys.
        [
          (sigabrt, "SIGABRT"); (sigalrm, "SIGALRM"); (sigbus, "SIGBUS");
          (sigfpe, "SIGFPE"); (sighup, "SIGHUP"); (sigill, "SIGILL");
          (sigint, "SIGINT"); (sigkill, "SIGKILL"); (sigpipe, "SIGPIPE");
          (sigquit, "SIGQUIT"); (sigsegv, "SIGSEGV"); (sigstop, "SIGSTOP");
          (sigterm, "SIGTERM"); (sigtrap, "SIGTRAP"); (sigxcpu, "SIGXCPU");
          (sigxfsz, "SIGXFSZ");
        ]
  with
  | Some name -> name
  | None -> string_of_int s

(* ------------------------------------------------------------------ *)
(* Compiler detection and the binary cache                             *)
(* ------------------------------------------------------------------ *)

let cc () =
  match Sys.getenv_opt "BEAST_CC" with
  | Some s when s <> "" -> s
  | _ -> "cc"

let cflags = [ "-O2"; "-std=c99" ]

let default_cache_dir () =
  match Sys.getenv_opt "BEAST_NATIVE_CACHE" with
  | Some s when s <> "" -> s
  | _ -> Filename.concat (Filename.get_temp_dir_name ()) "beast-native"

let compiler_available compiler =
  if Filename.is_implicit compiler then
    (* Resolve through $PATH the way execvp would. *)
    String.split_on_char ':' (Option.value ~default:"" (Sys.getenv_opt "PATH"))
    |> List.exists (fun dir ->
           dir <> "" && Sys.file_exists (Filename.concat dir compiler))
  else Sys.file_exists compiler

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Run [argv] with stderr sent to [err_file]; return the exit status. *)
let run_quiet argv err_file =
  let err_fd =
    Unix.openfile err_file [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close err_fd)
      (fun () ->
        Unix.create_process argv.(0) argv Unix.stdin Unix.stdout err_fd)
  in
  let _, status = Unix.waitpid [] pid in
  status

let first_lines ?(n = 5) file =
  match In_channel.with_open_text file In_channel.input_all with
  | "" -> "(no diagnostics)"
  | s ->
    let lines = String.split_on_char '\n' s in
    let kept = List.filteri (fun i _ -> i < n) lines in
    String.concat " | " (List.filter (fun l -> l <> "") kept)
  | exception Sys_error _ -> "(no diagnostics)"

let source_of_plan ?threads ?emit_survivors plan =
  match Codegen_c.generate ?threads ?emit_survivors plan with
  | Ok src -> src
  | Result.Error (Codegen_c.Unsupported msg) ->
    errorf
      "space %s cannot run on the native engine (%s); use staged or parallel"
      plan.Plan.space_name msg

let compile ?workdir ?threads ?emit_survivors (plan : Plan.t) =
  let source = source_of_plan ?threads ?emit_survivors plan in
  let compiler = cc () in
  let key =
    Digest.to_hex
      (Digest.string (String.concat "\x00" (source :: compiler :: cflags)))
  in
  let workdir =
    match workdir with Some d -> d | None -> default_cache_dir ()
  in
  let exe = Filename.concat workdir ("beast_" ^ key) in
  if Sys.file_exists exe then exe
  else begin
    if not (compiler_available compiler) then
      errorf "no C compiler: %S not found (set $BEAST_CC or install cc)"
        compiler;
    mkdir_p workdir;
    (* Stage under pid-tagged .tmp names and rename into place, so a
       killed or failing compile never leaves a half-written binary a
       later run could mistake for a cache hit. *)
    let tag = Printf.sprintf ".tmp.%d" (Unix.getpid ()) in
    (* The staged source must keep its .c suffix or the compiler treats
       it as a linker script. *)
    let src_tmp = exe ^ tag ^ ".c" in
    let exe_tmp = exe ^ tag in
    let err_tmp = exe ^ ".err" ^ tag in
    let cleanup f = try Sys.remove f with Sys_error _ -> () in
    Fun.protect
      ~finally:(fun () -> List.iter cleanup [ src_tmp; exe_tmp; err_tmp ])
      (fun () ->
        Out_channel.with_open_text src_tmp (fun oc ->
            Out_channel.output_string oc source);
        let argv =
          Array.of_list
            ((compiler :: cflags) @ [ "-pthread"; src_tmp; "-o"; exe_tmp ])
        in
        let status =
          try run_quiet argv err_tmp
          with Unix.Unix_error (e, _, _) ->
            errorf "could not run %s: %s" compiler (Unix.error_message e)
        in
        (match status with
        | Unix.WEXITED 0 -> ()
        | Unix.WEXITED n ->
          errorf "%s exited with status %d compiling %s: %s" compiler n
            plan.Plan.space_name (first_lines err_tmp)
        | Unix.WSIGNALED s | Unix.WSTOPPED s ->
          errorf "%s killed by signal %s compiling %s" compiler (signal_name s)
            plan.Plan.space_name);
        (* Keep the source next to the binary for debugging cache
           entries; both renames are atomic within the workdir. *)
        Sys.rename src_tmp (exe ^ ".c");
        Sys.rename exe_tmp exe);
    exe
  end

(* ------------------------------------------------------------------ *)
(* Parsing the subprocess's stats lines                                *)
(* ------------------------------------------------------------------ *)

(* Derive steps flattened in nest order: replaying them against the
   iterator values of a [hit] line rebuilds every slot, so the [on_hit]
   callback sees the same lookup the in-process engines provide. *)
let derive_sequence (plan : Plan.t) =
  let rec go acc steps =
    List.fold_left
      (fun acc (step : Plan.step) ->
        match step with
        | Plan.Derive { d_slot; d_compute; _ } -> (d_slot, d_compute) :: acc
        | Plan.Loop { l_body; _ } -> go acc l_body
        | Plan.Check _ | Plan.Yield | Plan.Static_prune _ -> acc)
      acc steps
  in
  List.rev (go [] plan.Plan.steps)

let stats_of_lines ?on_hit (plan : Plan.t) (lines : string Seq.t) :
    (Engine.stats, string) result =
  let n_iters = List.length plan.Plan.iter_order in
  let n_constraints = Array.length plan.Plan.constraint_info in
  let derives = derive_sequence plan in
  let slots = Array.make (max 1 plan.Plan.n_slots) 0 in
  let replay_hit values =
    match on_hit with
    | None -> ()
    | Some f ->
      Array.iteri (fun i v -> slots.(plan.Plan.iter_slots.(i)) <- v) values;
      List.iter
        (fun (slot, compute) ->
          match (compute : Plan.compute) with
          | Plan.CE e -> slots.(slot) <- Plan.eval_cexpr slots e
          | Plan.CF f -> slots.(slot) <- f slots)
        derives;
      f (Plan.lookup_of_slots plan slots)
  in
  (* Grammar: hit* , survivors N , iterations N , pruned <name> N per
     constraint in plan order. Anything else is a hard error naming the
     line — garbled output must never parse as plausible statistics. *)
  let hits = ref 0 in
  let survivors = ref None in
  let iterations = ref None in
  let pruned = Array.make (max 1 n_constraints) 0 in
  let next_constraint = ref 0 in
  let fail = ref None in
  let reject lineno fmt =
    Printf.ksprintf
      (fun s ->
        if !fail = None then
          fail := Some (Printf.sprintf "native: output line %d: %s" lineno s))
      fmt
  in
  let int_field lineno what s k =
    match int_of_string_opt s with
    | Some v -> k v
    | None -> reject lineno "%s is not an integer: %S" what s
  in
  let lineno = ref 0 in
  let handle line =
    incr lineno;
    let lineno = !lineno in
    match String.split_on_char ' ' line with
    | "hit" :: values ->
      if !survivors <> None then
        reject lineno "hit line after the summary started"
      else if List.length values <> n_iters then
        reject lineno
          "hit line has %d values, expected %d (interleaved or truncated \
           output?)"
          (List.length values) n_iters
      else begin
        let parsed = Array.make n_iters 0 in
        List.iteri
          (fun i s ->
            int_field lineno (Printf.sprintf "hit value %d" i) s (fun v ->
                parsed.(i) <- v))
          values;
        if !fail = None then begin
          incr hits;
          replay_hit parsed
        end
      end
    | [ "survivors"; n ] ->
      if !survivors <> None then reject lineno "duplicate survivors line"
      else int_field lineno "survivors" n (fun v -> survivors := Some v)
    | [ "iterations"; n ] ->
      if !survivors = None then reject lineno "iterations before survivors"
      else if !iterations <> None then
        reject lineno "duplicate iterations line"
      else int_field lineno "iterations" n (fun v -> iterations := Some v)
    | [ "zero-step"; k ] -> (
      match int_of_string_opt k with
      | Some i when i >= 0 && i < n_iters ->
        fail :=
          Some
            (Printf.sprintf "%s: zero range step"
               (List.nth plan.Plan.iter_order i))
      | _ -> reject lineno "zero-step names no loop: %S" k)
    | [ "pruned"; name; n ] ->
      if !iterations = None then
        reject lineno "pruned line before iterations"
      else if !next_constraint >= n_constraints then
        reject lineno "unexpected extra pruned line for %S" name
      else begin
        let expected, _ = plan.Plan.constraint_info.(!next_constraint) in
        if name <> Codegen_c.sanitize expected then
          reject lineno "pruned line for %S, expected constraint %S" name
            expected
        else
          int_field lineno "pruned count" n (fun v ->
              pruned.(!next_constraint) <- v;
              incr next_constraint)
      end
    | _ -> reject lineno "unrecognized line %S" line
  in
  Seq.iter (fun line -> if !fail = None then handle line) lines;
  match !fail with
  | Some msg -> Result.Error msg
  | None -> (
    match (!survivors, !iterations) with
    | None, _ -> Result.Error "native: truncated output: no survivors line"
    | _, None -> Result.Error "native: truncated output: no iterations line"
    | Some sv, Some it ->
      if !next_constraint < n_constraints then
        Result.Error
          (Printf.sprintf
             "native: truncated output: %d of %d pruned lines missing"
             (n_constraints - !next_constraint)
             n_constraints)
      else if (on_hit <> None || !hits > 0) && !hits <> sv then
        Result.Error
          (Printf.sprintf
             "native: survivors line says %d but %d hit lines seen" sv !hits)
      else
        Ok
          {
            Engine.survivors = sv;
            loop_iterations = it;
            pruned =
              Array.mapi
                (fun i (n, c) -> (n, c, pruned.(i)))
                plan.Plan.constraint_info;
          })

(* ------------------------------------------------------------------ *)
(* Running the binary                                                  *)
(* ------------------------------------------------------------------ *)

let run ?on_hit ?workdir ?(threads = 1) (plan : Plan.t) =
  let emit_survivors = on_hit <> None in
  let exe = compile ?workdir ~threads ~emit_survivors plan in
  let stats =
    Obs.with_span ~cat:"engine"
      ~args:
        [
          ("space", Obs.Str plan.Plan.space_name);
          ("threads", Obs.Int threads);
        ]
      "sweep:native"
      (fun () ->
        let r, w = Unix.pipe ~cloexec:false () in
        let pid =
          try Unix.create_process exe [| exe |] Unix.stdin w Unix.stderr
          with Unix.Unix_error (e, _, _) ->
            Unix.close r;
            Unix.close w;
            errorf "could not run %s: %s" exe (Unix.error_message e)
        in
        Unix.close w;
        let ic = Unix.in_channel_of_descr r in
        let reaped = ref false in
        (* If parsing (or an [on_hit] callback) aborts mid-stream, the
           child must not be left running or as a zombie: kill and reap
           before the exception continues. *)
        Fun.protect
          ~finally:(fun () ->
            close_in_noerr ic;
            if not !reaped then begin
              (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
              try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()
            end)
          (fun () ->
            let lines = Seq.of_dispenser (fun () -> In_channel.input_line ic) in
            let parsed = stats_of_lines ?on_hit plan lines in
            let _, status = Unix.waitpid [] pid in
            reaped := true;
            match status with
            | Unix.WEXITED 0 -> (
              match parsed with
              | Ok stats -> stats
              | Result.Error msg -> raise (Error msg))
            | Unix.WEXITED n -> (
              (* A zero range step names its loop on the last line. *)
              match parsed with
              | Result.Error msg when n = Codegen_c.zero_step_exit ->
                raise (Error msg)
              | _ -> errorf "%s exited with status %d" exe n)
            | Unix.WSIGNALED s ->
              errorf "%s killed by signal %s" exe (signal_name s)
            | Unix.WSTOPPED s ->
              errorf "%s stopped by signal %s" exe (signal_name s)))
  in
  Engine.report_totals (Obs.current ()).Obs.metrics
    ~survivors:stats.Engine.survivors
    ~loop_iterations:stats.Engine.loop_iterations;
  stats
