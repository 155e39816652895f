(* The beast command-line tool: sweep, visualize, translate and tune the
   bundled search spaces. *)

open Cmdliner
open Beast_core
open Beast_gpu
open Beast_kernels
open Beast_autotune
open Beast_dsl
open Beast_obs

(* ------------------------------------------------------------------ *)
(* Shared arguments                                                    *)
(* ------------------------------------------------------------------ *)

let device_arg =
  let doc = "Device preset: k40c, gtx680, c2050 or gtx750ti." in
  Arg.(value & opt string "k40c" & info [ "device" ] ~docv:"NAME" ~doc)

(* The one device lookup: an unknown name is one stderr line, exit 2. *)
let find_device name =
  match Device.find name with
  | Some d -> d
  | None ->
    Format.eprintf "unknown device %s (try: %s)@." name
      (String.concat ", " (List.map fst Device.presets));
    exit 2

let max_dim_arg =
  let doc =
    "Scale the device's thread-grid dimensions down to $(docv). The \
     unscaled K40c GEMM space ($(docv) = 1024 with --max-threads 1024) is \
     2,096,997,743 loop iterations and 1,207,600 survivors, about 1.3 s \
     on --engine native:2 including the C compile."
  in
  Arg.(value & opt int 32 & info [ "max-dim" ] ~docv:"N" ~doc)

let max_threads_arg =
  let doc = "Scale the device's threads-per-block limit down to $(docv)." in
  Arg.(value & opt int 128 & info [ "max-threads" ] ~docv:"N" ~doc)

let engine_arg =
  (* Engines resolve by name through the registry — the CLI no longer
     keeps its own list of what exists. The value is the catalog row
     together with the built engine. *)
  let parse s =
    Result.map_error (fun msg -> `Msg msg) (Engine_registry.find s)
  in
  let print ppf (_, (module E : Engine_intf.S)) =
    Format.pp_print_string ppf E.name
  in
  let doc =
    Printf.sprintf "Evaluation engine: %s."
      (String.concat ", " Engine_registry.names)
  in
  Arg.(
    value
    & opt (conv (parse, print)) (Result.get_ok (Engine_registry.find "staged"))
    & info [ "engine" ] ~docv:"ENGINE" ~doc)

let trace_arg =
  let doc =
    "Write a trace of planning and enumeration to $(docv); the file is \
     written when the run ends."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let trace_format_arg =
  let fmts =
    [
      ("jsonl", Run_config.Jsonl);
      ("chrome", Run_config.Chrome);
      ("summary", Run_config.Summary);
    ]
  in
  let doc =
    "Trace format: $(b,jsonl) (one event per line), $(b,chrome) \
     (trace-event JSON, loadable in Perfetto or chrome://tracing), or \
     $(b,summary) (human-readable aggregates)."
  in
  Arg.(
    value
    & opt (enum fmts) Run_config.Chrome
    & info [ "trace-format" ] ~docv:"FORMAT" ~doc)

let progress_arg =
  let doc = "Report live progress (points, survivors, ETA) on stderr." in
  Arg.(value & flag & info [ "progress" ] ~doc)

let shard_arg =
  (* Syntax only: the bounds (0 <= I < N, N > 0) are checked by
     Run_config.validate so programmatic configs get the same errors. *)
  let parse s =
    match String.index_opt s '/' with
    | Some k -> (
      match
        ( int_of_string_opt (String.sub s 0 k),
          int_of_string_opt (String.sub s (k + 1) (String.length s - k - 1)) )
      with
      | Some i, Some n -> Ok (i, n)
      | _ -> Error (`Msg "shard: expected I/N with integer I and N"))
    | None -> Error (`Msg "shard: expected I/N, e.g. --shard 0/3")
  in
  let print ppf (i, n) = Format.fprintf ppf "%d/%d" i n in
  let doc =
    "Enumerate only shard $(docv) (0-based index I of an N-way contiguous \
     block split of the outermost loop). The N shards partition the space: \
     run each on its own machine or CI job with --stats-out and recombine \
     the files with $(b,beast merge)."
  in
  Arg.(
    value
    & opt (some (conv (parse, print))) None
    & info [ "shard" ] ~docv:"I/N" ~doc)

let checkpoint_arg =
  let doc =
    "Periodically snapshot the sweep's completed-chunk ledger to $(docv) \
     (written atomically), so a killed run can continue with --resume. \
     Needs the parallel engine."
  in
  Arg.(
    value & opt (some string) None & info [ "checkpoint" ] ~docv:"FILE" ~doc)

let checkpoint_every_arg =
  let doc = "Seconds between checkpoint snapshots (default 5)." in
  Arg.(
    value & opt float 5.0 & info [ "checkpoint-every" ] ~docv:"SECONDS" ~doc)

let resume_arg =
  let doc =
    "Resume from the checkpoint in $(docv): chunks it records as complete \
     are skipped and the final output is byte-identical to an \
     uninterrupted run. Checkpointing continues into the same file unless \
     --checkpoint names another."
  in
  Arg.(value & opt (some string) None & info [ "resume" ] ~docv:"FILE" ~doc)

let fault_arg =
  (* Test hooks: chunk-crash proves crash recovery (failed attempts are
     retried); chunk-fatal takes the whole run down, exercising the
     flight-recorder and run-record crash paths. *)
  let parse s =
    let bad () =
      Error
        (`Msg
           "fault-inject: expected chunk-crash:P (crash probability, \
            optionally chunk-crash:P:SEED) or chunk-fatal:K (unrecoverable \
            crash when chunk K runs)")
    in
    match String.split_on_char ':' s with
    | [ "chunk-crash"; p ] -> (
      match float_of_string_opt p with
      | Some prob -> Ok (Run_config.Chunk_crash { prob; seed = 42 })
      | None -> bad ())
    | [ "chunk-crash"; p; seed ] -> (
      match (float_of_string_opt p, int_of_string_opt seed) with
      | Some prob, Some seed -> Ok (Run_config.Chunk_crash { prob; seed })
      | _ -> bad ())
    | [ "chunk-fatal"; k ] -> (
      match int_of_string_opt k with
      | Some chunk -> Ok (Run_config.Chunk_fatal { chunk })
      | None -> bad ())
    | _ -> bad ()
  in
  let print ppf = function
    | Run_config.Chunk_crash { prob; seed } ->
      Format.fprintf ppf "chunk-crash:%g:%d" prob seed
    | Run_config.Chunk_fatal { chunk } ->
      Format.fprintf ppf "chunk-fatal:%d" chunk
  in
  let doc =
    "Fault-injection test hook: $(b,chunk-crash:P) makes each chunk \
     attempt crash with probability P (deterministic in the optional \
     SEED, default 42; crashed chunks are retried until they complete, \
     so the final statistics are unaffected); $(b,chunk-fatal:K) raises \
     an unrecoverable error when chunk K runs, taking the run down — \
     use with --flight to exercise post-mortem dumps."
  in
  Arg.(
    value
    & opt (some (conv (parse, print))) None
    & info [ "fault-inject" ] ~docv:"KIND:P" ~doc)

let explain_out_arg =
  let doc =
    "Collect single-pass pruning provenance during the sweep (exact \
     per-constraint removal counts, per-depth survival, survivor density \
     over the outermost iterator) and write it with the sweep statistics \
     to $(docv). Render with $(b,beast explain); shard files merge with \
     $(b,beast merge) into exactly the unsharded file. Incompatible with \
     --resume."
  in
  Arg.(
    value & opt (some string) None & info [ "explain-out" ] ~docv:"FILE" ~doc)

let stats_out_arg =
  let doc =
    "Write the sweep statistics (survivor and loop-iteration totals, \
     per-constraint pruned counts) to $(docv) as deterministic JSON, \
     mergeable across shards with $(b,beast merge). With --metrics the \
     file also carries the run's histogram state, recombinable into \
     exact fleet-level percentiles."
  in
  Arg.(value & opt (some string) None & info [ "stats-out" ] ~docv:"FILE" ~doc)

let metrics_arg =
  let doc =
    "Record runtime metrics (per-constraint evaluation-latency \
     histograms, per-depth loop-entry counts, scheduler chunk \
     durations, planning phases). View with $(b,beast report) on the \
     --stats-out file."
  in
  Arg.(value & flag & info [ "metrics" ] ~doc)

let metrics_out_arg =
  let doc =
    "Write the recorded metrics to $(docv) in Prometheus text \
     exposition format (implies --metrics); the file is written when the \
     run ends."
  in
  Arg.(
    value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)

let status_every_arg =
  let doc = "Seconds between --runs record rewrites (default 1)." in
  Arg.(value & opt float 1.0 & info [ "status-every" ] ~docv:"SECONDS" ~doc)

(* The removed --status FILE, hidden and refused by name: undeclared, it
   parses as a prefix of --status-every. An exact name wins over a
   prefix, so --status-every and --status-e still work. *)
let status_arg =
  Arg.(
    value
    & opt ~vopt:(Some "") (some string) None
    & info [ "status" ] ~docs:Manpage.s_none)

let flight_arg =
  let doc =
    "Keep a fixed-size flight-recorder ring of recent events per domain \
     and dump it to $(docv) as JSONL when the run exits — cleanly, \
     interrupted or crashed — so post-mortems get the last moments \
     without full --trace cost."
  in
  Arg.(value & opt (some string) None & info [ "flight" ] ~docv:"FILE" ~doc)

let runs_dir_arg =
  let doc =
    "Write the run record $(docv)/RUN_ID.json at start (state \
     \"running\"), rewrite it every --status-every seconds (chunks \
     done/total, per-domain throughput, survivor rate, pruning-aware ETA, \
     checkpoint age) and finalize it at exit (completed/interrupted/\
     crashed, exit code). Follow one with $(b,beast top), list them with \
     $(b,beast runs); --run-id fixes the file name."
  in
  Arg.(value & opt (some string) None & info [ "runs" ] ~docv:"DIR" ~doc)

let run_id_arg =
  let doc =
    "Use $(docv) as the run id instead of minting one, and also stamp \
     it into the --stats-out file (minted ids never are, so stats stay \
     byte-identical across instrumentation settings)."
  in
  Arg.(value & opt (some string) None & info [ "run-id" ] ~docv:"ID" ~doc)

let archive_flag_arg =
  let doc =
    "On clean completion, ingest the run's statistics (funnel, \
     per-constraint fired counts, metrics and provenance when recorded) \
     into the cross-run performance archive; compare runs with \
     $(b,beast diff) and watch the timeline with $(b,beast trends)."
  in
  Arg.(value & flag & info [ "archive" ] ~doc)

let archive_dir_arg =
  let doc =
    "Archive directory for --archive (default: $(b,\\$BEAST_ARCHIVE) or \
     $(b,.beast/archive))."
  in
  Arg.(
    value & opt (some string) None & info [ "archive-dir" ] ~docv:"DIR" ~doc)

(* The observability settings shared by every instrumented subcommand,
   assembled into one Run_config record instead of a dozen loose values
   threaded through each term. *)
let obs_config_term =
  let build trace trace_format progress metrics metrics_out status_every_s
      status flight runs_dir run_id =
    if status <> None then begin
      Format.eprintf
        "beast: --status is gone; --runs DIR writes the run record \
         DIR/RUN_ID.json that beast top follows@.";
      exit 2
    end;
    {
      Run_config.default with
      Run_config.trace;
      trace_format;
      progress;
      metrics;
      metrics_out;
      status_every_s;
      flight;
      runs_dir;
      run_id;
    }
  in
  Term.(
    const build $ trace_arg $ trace_format_arg $ progress_arg $ metrics_arg
    $ metrics_out_arg $ status_every_arg $ status_arg $ flight_arg
    $ runs_dir_arg $ run_id_arg)

let propagate_arg =
  let doc =
    "Constraint-propagation pre-pass: $(b,on) removes statically-dead \
     iterator values from the loop nest before enumeration (statistics \
     stay byte-identical — the dead values are replayed as bookkeeping), \
     $(b,off) runs the plan as built. The default comes from the \
     engine's registry entry: on everywhere except interp-naive, whose \
     unoptimized cost model is the point."
  in
  Arg.(
    value
    & opt (some (enum [ ("on", true); ("off", false) ])) None
    & info [ "propagate" ] ~docv:"on|off" ~doc)

(* Sweep adds sharding, propagation, the checkpoint/resume/fault
   settings and the provenance collector on top. *)
let sweep_config_term =
  let build cfg shard propagate checkpoint checkpoint_every_s resume fault
      explain_out archive archive_dir =
    {
      cfg with
      Run_config.shard;
      propagate;
      checkpoint;
      checkpoint_every_s;
      resume;
      fault;
      explain_out;
      archive;
      archive_dir;
    }
  in
  Term.(
    const build $ obs_config_term $ shard_arg $ propagate_arg
    $ checkpoint_arg $ checkpoint_every_arg $ resume_arg $ fault_arg
    $ explain_out_arg $ archive_flag_arg $ archive_dir_arg)

(* A failed file operation or stdout write: one "beast: ..." line and
   exit code 1. What stdout still buffers is dropped with the channel,
   so the flush [exit] runs has nothing left to fail on. *)
let io_failure msg =
  (try Format.pp_print_flush Format.std_formatter () with Sys_error _ -> ());
  close_out_noerr stdout;
  Format.eprintf "beast: %s@." msg;
  1

(* Validate the config, then run [f] under its instrumentation, which
   probes [outputs] (the files only [f] writes) with the config's own
   output paths before anything runs. [f] receives the effective run id
   and returns the process exit code rather than calling [exit] itself,
   so the run's finalizers (trace, flight and metrics writes, run record
   finalization) always run before the process ends. A space the
   engines cannot run — untranslatable for the compiled tier, a missing
   compiler, a failed compile, an evaluation error such as a zero range
   step — gets one actionable line and exit 2, never an exception
   trace; a failed file or stdout write gets one line and exit 1
   ({!io_failure}); any other exception exits 125. *)
let with_config ?outputs ~space ~engine cfg f =
  (match Run_config.validate cfg with
  | Ok () -> ()
  | Error msg ->
    Format.eprintf "beast: %s@." msg;
    exit 2);
  let diagnose code msg =
    Format.eprintf "beast: %s@." msg;
    code
  in
  match
    Run_config.with_instrumentation ?outputs ~space ~engine cfg (fun run_id ->
        try f run_id with
        | Sys_error msg -> io_failure msg
        | Engine_native.Error msg | Expr.Eval_error msg -> diagnose 2 msg
        | Division_by_zero -> diagnose 2 "division by zero")
  with
  | 0 -> ()
  | code -> exit code

(* The space, and the device when the space is built from it: a .beast
   file's own settings define its space, and fft and synth have none. *)
let resolve_space name device =
  if Filename.check_suffix name ".beast" then
    match Parse.space_of_file name with
    | Ok sp -> (sp, None)
    | Error e ->
      Format.eprintf "%s: %a@." name Parse.pp_error e;
      exit 2
  else
  let on_device sp = (sp, Some device) in
  match name with
  | "gemm" ->
    on_device
    @@ Gemm.space ~settings:{ Gemm.default_settings with Gemm.device } ()
  | "cholesky" ->
    on_device
    @@ Cholesky_batched.space
      ~workload:{ Cholesky_batched.default_workload with Cholesky_batched.device }
      ()
  | "trsm" ->
    on_device
    @@ Trsm_batched.space
      ~workload:{ Trsm_batched.default_workload with Trsm_batched.device }
      ()
  | "lu" ->
    on_device
    @@ Lu_batched.space
      ~workload:{ Lu_batched.default_workload with Lu_batched.device }
      ()
  | "als" ->
    on_device @@ Als.space ~workload:{ Als.default_workload with Als.device } ()
  | "conv2d" ->
    on_device
    @@ Conv2d.space ~workload:{ Conv2d.default_workload with Conv2d.device } ()
  | "gemm-opt" ->
    on_device
    @@ Gemm.space_divisor_opt
         ~settings:{ Gemm.default_settings with Gemm.device }
         ()
  | "fft" -> (Fft.space ~max_size:64 (), None)
  | "synth" -> (Synth.space (), None)
  | other ->
    Format.eprintf
      "unknown space %s (try: gemm, gemm-opt, cholesky, trsm, lu, als, conv2d, \
       fft, synth)@."
      other;
    exit 2

(* The SPACE argument resolved against the scaled --device: what every
   space-taking command starts from. Commands apply it last, so the
   other arguments are converted before a bad device or space exits.
   [s_device] is [None] for a space the device does not shape. *)
type selected = {
  s_name : string;
  s_device : Device.t option;
  s_space : Space.t;
}

let space_term =
  let space_arg =
    let doc = "Search space: gemm, gemm-opt, cholesky, trsm, lu, als, fft, synth (a billion-point constrained chain for exercising count/sample), or a .beast file written in the textual notation (see doc/LANGUAGE.md)." in
    Arg.(value & pos 0 string "gemm" & info [] ~docv:"SPACE" ~doc)
  in
  let resolve name device max_dim max_threads =
    let device = Device.scale ~max_dim ~max_threads (find_device device) in
    let s_space, s_device = resolve_space name device in
    { s_name = name; s_device; s_space }
  in
  Term.(const resolve $ space_arg $ device_arg $ max_dim_arg $ max_threads_arg)

let objective_for space_name device =
  match (space_name, device) with
  | ("gemm" | "gemm-opt"), Some device ->
    let settings = { Gemm.default_settings with Gemm.device } in
    ( Gemm.objective settings,
      Some (Device.peak_gflops device Device.Double),
      None )
  | "cholesky", Some device ->
    let w = { Cholesky_batched.default_workload with Cholesky_batched.device } in
    ( Cholesky_batched.objective w,
      Some (Device.peak_gflops device Device.Double),
      Some (Cholesky_batched.baseline_gflops w) )
  | "trsm", Some device ->
    let w = { Trsm_batched.default_workload with Trsm_batched.device } in
    ( Trsm_batched.objective w,
      Some (Device.peak_gflops device Device.Double),
      Some (Trsm_batched.baseline_gflops w) )
  | "lu", Some device ->
    let w = { Lu_batched.default_workload with Lu_batched.device } in
    ( Lu_batched.objective w,
      Some (Device.peak_gflops device Device.Double),
      Some (Lu_batched.baseline_gflops w) )
  | "als", Some device ->
    let w = { Als.default_workload with Als.device } in
    ( Als.objective w,
      Some (Device.peak_gflops device w.Als.precision),
      Some (Als.cpu_baseline_gflops w) )
  | "conv2d", Some device ->
    let w = { Conv2d.default_workload with Conv2d.device } in
    ( Conv2d.objective w,
      Some (Device.peak_gflops device w.Conv2d.precision),
      None )
  | "fft", _ -> (Fft.objective, None, None)
  | other, _ ->
    Format.eprintf
      "no benchmark objective is bundled for %s; tune/search need one of the \
       built-in spaces (use sweep/dot/codegen/funnel for .beast files)@."
      other;
    exit 2

(* ------------------------------------------------------------------ *)
(* Commands                                                            *)
(* ------------------------------------------------------------------ *)

let resolve_archive_dir = function
  | Some d -> d
  | None -> Archive.default_dir ()

let sweep_term =
  let run ((row : Engine_registry.entry), (module E : Engine_intf.S)) stats_out
      cfg { s_name = space_name; s_device = device; s_space = sp } =
    (* Whether the propagation pre-pass runs: --propagate wins, else
       the engine's catalog entry decides (off only for the
       deliberately-unoptimized interp-naive baseline). *)
    let propagate =
      match cfg.Run_config.propagate with
      | Some b -> b
      | None -> row.e_propagate_default
    in
    let wants_resumable =
      cfg.Run_config.checkpoint <> None
      || cfg.Run_config.resume <> None
      || cfg.Run_config.fault <> None
    in
    (* Flags the engine's catalog row cannot honor are refused before
       any file is written, naming the engines that can. *)
    let refuse needs capable =
      let specs =
        Engine_registry.(
          List.filter_map
            (fun e -> if capable e then Some e.e_spec else None)
            catalog)
      in
      let rec alternatives = function
        | [] -> ""
        | [ s ] -> s
        | [ a; b ] -> a ^ " or " ^ b
        | s :: rest -> s ^ ", " ^ alternatives rest
      in
      Format.eprintf "beast: %s (use --engine %s)@." needs
        (alternatives specs);
      exit 2
    in
    if wants_resumable && not row.e_resumable then
      refuse
        "--checkpoint, --resume and --fault-inject need an engine with a \
         chunk ledger"
        (fun e -> e.Engine_registry.e_resumable);
    if cfg.Run_config.explain_out <> None && not row.e_provenance then
      refuse "--explain-out needs an engine that records pruning provenance"
        (fun e -> e.Engine_registry.e_provenance);
    (* The checkpoint file is read before instrumentation starts: a
       corrupt or mismatched file must fail before any work happens. *)
    let resume_ck =
      Option.map
        (fun path ->
          match Checkpoint.of_file path with
          | Ok ck -> ck
          | Error msg ->
            Format.eprintf "beast: %s: %s@." path msg;
            exit 1)
        cfg.Run_config.resume
    in
    let ck_path = Run_config.checkpoint_path cfg in
    with_config ~outputs:(Option.to_list stats_out) ~space:space_name
      ~engine:E.name cfg (fun run_id ->
        let t0 = Clock.now_ns () in
        (* The unchunked plan carries the constraint metadata --stats-out
           serializes; sharding restricts a copy of it. *)
        let plan = Plan.make_exn sp in
        let sharded, shard_info =
          match cfg.Run_config.shard with
          | None -> (plan, Stats_io.unsharded)
          | Some (index, of_) ->
            ( Plan.chunk_outer plan ~index ~of_,
              { Stats_io.shard_index = index; shard_of = of_ } )
        in
        (* Chunk BEFORE propagating: each shard tightens its own block,
           so its statistics stay byte-identical to the unpropagated
           shard's (the pinned safety rail). *)
        let run_plan =
          if propagate then
            Plan.optimize ~passes:[ Propagate.pass ] sharded
          else sharded
        in
        match
          Option.fold ~none:(Ok ())
            ~some:(Checkpoint.validate ~plan:run_plan ~shard:shard_info)
            resume_ck
        with
        | Error msg ->
          Format.eprintf "beast: %s@." msg;
          1
        | Ok () -> (
          let outcome =
            match E.resumable with
            | Some resumable ->
              (* The resumable scheduler also handles the plain case, so
                 every parallel sweep gets graceful SIGINT/SIGTERM
                 draining, checkpointed or not. *)
              let sink =
                Option.map
                  (fun path ->
                    {
                      Engine_intf.ck_path = path;
                      ck_every_s = cfg.Run_config.checkpoint_every_s;
                      ck_run_id = run_id;
                      ck_shard = shard_info;
                    })
                  ck_path
              in
              let handler =
                Sys.Signal_handle (fun _ -> Engine_parallel.interrupt ())
              in
              Sys.set_signal Sys.sigint handler;
              Sys.set_signal Sys.sigterm handler;
              resumable ?checkpoint:sink ?resume:resume_ck
                ?fault:cfg.Run_config.fault run_plan
            | None ->
              (* Untouched full-space runs keep the Space target so the
                 interpreters plan (naive or hoisted) themselves; any
                 chunked or propagated nest must be executed as given. *)
              Engine_intf.Finished
                (if propagate || cfg.Run_config.shard <> None then
                   E.run (Engine_intf.Plan run_plan)
                 else E.run (Engine_intf.Space sp))
          in
          match outcome with
          | Engine_intf.Interrupted { completed; total } ->
            Format.eprintf "beast: interrupted after %d of %d chunks@."
              completed total;
            (match ck_path with
            | Some path ->
              Format.eprintf
                "beast: checkpoint saved; continue with --resume %s@." path
            | None ->
              Format.eprintf
                "beast: progress lost (run with --checkpoint FILE to make \
                 sweeps resumable)@.");
            3
          | Engine_intf.Finished stats ->
            let dt = Clock.elapsed_s ~since:t0 in
            Format.printf "space %s%s, engine %s%s: %.3fs@." space_name
              (match device with
              | Some d -> " on " ^ d.Device.name
              | None -> "")
              E.name
              (match cfg.Run_config.shard with
              | None -> ""
              | Some (i, n) -> Printf.sprintf ", shard %d/%d" i n)
              dt;
            Format.printf "%a" Engine.pp_stats stats;
            (* A checkpoint that survived to the end is stale: the run
               completed, so resuming from it would be wrong. *)
            Option.iter
              (fun path ->
                if Sys.file_exists path then begin
                  (try Sys.remove path with Sys_error _ -> ());
                  Format.eprintf
                    "beast: removed checkpoint %s (run complete)@." path
                end)
              ck_path;
            let record ?run_id ?provenance () =
              Stats_io.of_stats ~plan ?run_id ~shard:shard_info
                ?metrics:(Checkpoint.run_metrics resume_ck) ?provenance
                stats
            in
            (* The context's collector, with --explain-out. *)
            let provenance =
              Option.bind (Obs.current ()).Obs.provenance (fun c ->
                  c.Pruned.acc)
            in
            (match stats_out with
            | None -> ()
            | Some file ->
              Stats_io.write_file file
                (record ?run_id:cfg.Run_config.run_id ());
              Format.eprintf "wrote sweep statistics to %s@." file);
            (match (cfg.Run_config.explain_out, provenance) with
            | Some file, Some provenance ->
              (* The explain file is the stats file plus the provenance
                 section (and the metrics, when recorded), so beast
                 merge/report/explain all read it. *)
              Stats_io.write_file file
                (record ?run_id:cfg.Run_config.run_id ~provenance ());
              Format.eprintf "wrote pruning provenance to %s@." file
            | _ -> ());
            (* Archive ingestion happens last and never fails the run: a
               completed sweep's exit code should not depend on the
               history store. The payload carries the minted run id, so
               repeated identical sweeps archive as distinct records and
               the trends timeline actually accumulates. *)
            (if cfg.Run_config.archive then begin
               let dir = resolve_archive_dir cfg.Run_config.archive_dir in
               let record = record ?run_id ?provenance () in
               match
                 Archive.ingest ~dir ~engine:E.name
                   ?commit:(Archive.commit_from_env ())
                   ~host:(Unix.gethostname ())
                   (Stats_io.to_jsonx record)
               with
               | Ok (r, true) ->
                 Format.eprintf "archived run as %s (seq %d) in %s@."
                   r.Archive.meta.Archive.a_id r.Archive.meta.Archive.a_seq
                   dir
               | Ok (r, false) ->
                 Format.eprintf "run already archived as %s in %s@."
                   r.Archive.meta.Archive.a_id dir
               | Error msg -> Format.eprintf "beast: archive: %s@." msg
             end);
            0))
  in
  Term.(const run $ engine_arg $ stats_out_arg $ sweep_config_term $ space_term)

let sweep_cmd =
  Cmd.v (Cmd.info "sweep" ~doc:"Enumerate and prune a search space") sweep_term

let enumerate_cmd =
  Cmd.v
    (Cmd.info "enumerate" ~doc:"Enumerate and prune a search space (alias of sweep)")
    sweep_term

let dot_cmd =
  let run { s_space; _ } = print_string (Space.to_dot s_space) in
  Cmd.v
    (Cmd.info "dot"
       ~doc:
         "Print the dependency DAG (iterators, derived variables, \
          constraints) as GraphViz - Figure 16 of the paper")
    Term.(const run $ space_term)

let codegen_cmd =
  let lang_arg =
    let lang_conv =
      Arg.enum (List.map (fun l -> (Codegen.lang_name l, l)) Codegen.all_langs)
    in
    Arg.(value & opt lang_conv Codegen.C & info [ "lang" ] ~docv:"LANG"
           ~doc:"Backend: c, python, lua, fortran or java.")
  in
  let threads_arg =
    Arg.(value & opt int 1 & info [ "threads" ] ~docv:"N"
           ~doc:"pthread fan-out (C backend only).")
  in
  let run lang threads { s_space; _ } =
    match Codegen.generate ~threads lang (Plan.make_exn s_space) with
    | Ok source -> print_string source
    | Error e ->
      Format.eprintf "cannot translate: %a@." Codegen_c.pp_error e;
      exit 1
  in
  Cmd.v
    (Cmd.info "codegen"
       ~doc:"Translate a space to a standalone enumeration program")
    Term.(const run $ lang_arg $ threads_arg $ space_term)

let tune_cmd =
  let top_arg =
    Arg.(value & opt int 5 & info [ "top" ] ~docv:"N" ~doc:"Show the N best.")
  in
  let timeout_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:
            "Abort any single benchmark call running longer than $(docv) \
             and count it as a failure (reliable with the sequential \
             engines).")
  in
  let retries_arg =
    Arg.(
      value & opt int 1
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Retry a failing benchmark up to N times with exponential \
             backoff before skipping the configuration.")
  in
  let backoff_arg =
    Arg.(
      value & opt float 0.05
      & info [ "backoff" ] ~docv:"SECONDS"
          ~doc:"Initial retry backoff; doubles on every further attempt.")
  in
  let run (_, engine) top timeout_s retries backoff_s cfg
      { s_name = space_name; s_device = device; s_space = sp } =
    (* Refused before the sweep: a negative count or delay would raise
       mid-run, and a timeout of 0 disarms the guard instead of
       enforcing it. *)
    let refuse what =
      Format.eprintf "beast tune: %s@." what;
      exit 2
    in
    if retries < 0 then
      refuse (Printf.sprintf "--retries must be non-negative (got %d)" retries);
    if not (backoff_s >= 0.0) then
      refuse
        (Printf.sprintf "--backoff must be non-negative (got %g)" backoff_s);
    Option.iter
      (fun t ->
        if not (t > 0.0) then
          refuse (Printf.sprintf "--timeout must be positive (got %g)" t))
      timeout_s;
    let objective, peak, baseline = objective_for space_name device in
    with_config ~space:space_name ~engine:"tune" cfg (fun _run_id ->
        let r =
          Tuner.tune ~engine ~top_n:top ?timeout_s ~retries ~backoff_s
            ~objective sp
        in
        Format.printf "%a" (Tuner.pp_result ?peak) r;
        (match baseline with
        | Some b -> (
          match Tuner.improvement r ~baseline:b with
          | Some ratio ->
            Format.printf "improvement over the cuBLAS model: %.2fx@." ratio
          | None -> ())
        | None -> ());
        0)
  in
  Cmd.v
    (Cmd.info "tune"
       ~doc:"Enumerate, prune, benchmark on the device model, and rank")
    Term.(
      const run $ engine_arg $ top_arg $ timeout_arg $ retries_arg
      $ backoff_arg $ obs_config_term $ space_term)

let occupancy_cmd =
  let threads = Arg.(required & pos 0 (some int) None & info [] ~docv:"THREADS") in
  let regs = Arg.(required & pos 1 (some int) None & info [] ~docv:"REGS") in
  let shmem = Arg.(required & pos 2 (some int) None & info [] ~docv:"SHMEM") in
  let run device threads regs shmem =
    let d = find_device device in
    let usage =
      {
        Occupancy.threads_per_block = threads;
        regs_per_thread = regs;
        shmem_per_block = shmem;
      }
    in
    match Occupancy.calculate d usage with
    | Error e -> Format.printf "infeasible: %s@." (Occupancy.infeasible_name e)
    | Ok r ->
      Format.printf
        "active blocks %d (warps %d, regs %d, shmem %d, hw %d)@.occupancy %.2f, limited by %s@."
        r.Occupancy.active_blocks r.Occupancy.blocks_by_warps
        r.Occupancy.blocks_by_regs r.Occupancy.blocks_by_shmem
        r.Occupancy.blocks_hw_limit r.Occupancy.occupancy
        (Occupancy.limiting_factor r)
  in
  Cmd.v
    (Cmd.info "occupancy"
       ~doc:"The automated occupancy calculator (paper Section II)")
    Term.(const run $ device_arg $ threads $ regs $ shmem)

let funnel_cmd =
  let svg_arg =
    Arg.(value & opt (some string) None & info [ "svg" ] ~docv:"FILE"
           ~doc:"Also write the radial visualization (paper ref. [7]).")
  in
  let run svg cfg { s_name = space_name; s_space = sp; _ } =
    with_config ~outputs:(Option.to_list svg) ~space:space_name
      ~engine:"funnel" cfg (fun _run_id ->
        let f = Stats.funnel sp in
        Format.printf "%a" Stats.pp f;
        Option.iter
          (fun file ->
            Jsonx.write_file file (Visualize.svg f);
            Format.printf "wrote %s@." file)
          svg;
        0)
  in
  Cmd.v
    (Cmd.info "funnel"
       ~doc:
         "Measure how much of the space each constraint removes: one \
          provenance-instrumented sweep, or one sweep per constraint \
          prefix when closure iterators make that sweep's attribution \
          inexact")
    Term.(const run $ svg_arg $ obs_config_term $ space_term)

(* ------------------------------------------------------------------ *)
(* count / sample — the compact feasible-set queries                    *)
(* ------------------------------------------------------------------ *)

(* count, sample and search run the propagation pre-pass
   unconditionally: it never changes the feasible set (the identity
   tests pin that), it only shrinks the diagram construction, and the
   --bound path reads the Static_prune records it leaves behind. *)
let feasible_of space_name sp =
  let plan = Plan.optimize ~passes:[ Propagate.pass ] (Plan.make_exn sp) in
  (plan, fun () ->
    match Feasible.build plan with
    | Ok f -> f
    | Error msg ->
      Format.eprintf "%s: cannot build a feasible set: %s@." space_name msg;
      exit 2)

let count_cmd =
  let bound_arg =
    Arg.(
      value & flag
      & info [ "bound" ]
          ~doc:
            "Print the propagation upper bound — the product of the \
             per-iterator live ranges left by the interval pre-pass — \
             instead of building the diagram. Cheaper, never below the \
             exact count.")
  in
  let run bound { s_name = space_name; s_space = sp; _ } =
    let plan, build = feasible_of space_name sp in
    if bound then (
      match Feasible.of_propagation plan with
      | Ok f -> Format.printf "%d@." (Feasible.count f)
      | Error msg ->
        Format.eprintf "%s: cannot bound: %s@." space_name msg;
        exit 2)
    else Format.printf "%d@." (Feasible.count (build ()))
  in
  Cmd.v
    (Cmd.info "count"
       ~doc:
         "Exact number of surviving points, computed over the compact \
          feasible-set decision diagram instead of full enumeration \
          (counts billion-point spaces in milliseconds); --bound for the \
          cheaper propagation-only upper bound")
    Term.(const run $ bound_arg $ space_term)

(* The decimal digits of [v], written into [buf] without building a
   string. *)
let add_int buf v =
  if v = min_int then Buffer.add_string buf (string_of_int v)
  else begin
    if v < 0 then Buffer.add_char buf '-';
    let rec digits v =
      if v >= 10 then digits (v / 10);
      Buffer.add_char buf (Char.unsafe_chr (48 + (v mod 10)))
    in
    digits (abs v)
  end

let sample_cmd =
  let n_arg =
    Arg.(
      value & opt int 1
      & info [ "n" ] ~docv:"N" ~doc:"Number of points to draw.")
  in
  let seed_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"RNG seed; omitted, a fixed default state is used.")
  in
  let run n seed { s_name = space_name; s_space = sp; _ } =
    let _, build = feasible_of space_name sp in
    let f = build () in
    let rng = Option.map (fun s -> Random.State.make [| s |]) seed in
    let ok = ref 0 in
    let prefix =
      Array.of_list
        (List.mapi
           (fun i k -> (if i > 0 then " " else "") ^ k ^ "=")
           (Feasible.iterators f))
    in
    let point = Array.make (Array.length prefix) 0 in
    (* Lines collect in one small buffer, handed to stdout 4 KiB at a
       time: a larger one only grows the process. *)
    let buf = Buffer.create 0x2000 in
    for _ = 1 to n do
      if Feasible.sample_into ?rng f point then begin
        incr ok;
        Array.iteri
          (fun i p ->
            Buffer.add_string buf p;
            add_int buf point.(i))
          prefix;
        Buffer.add_char buf '\n';
        if Buffer.length buf >= 0x1000 then begin
          Buffer.output_buffer stdout buf;
          Buffer.clear buf
        end
      end
    done;
    Buffer.output_buffer stdout buf;
    if !ok = 0 && n > 0 then (
      Format.eprintf "%s: no feasible points@." space_name;
      exit 1)
  in
  Cmd.v
    (Cmd.info "sample"
       ~doc:
         "Draw uniform random points from the feasible set — every draw \
          is a survivor, however sparse the constraints, via exact \
          indexing of the feasible-set diagram (no rejection loop)")
    Term.(const run $ n_arg $ seed_arg $ space_term)

let search_cmd =
  let method_arg =
    Arg.(value & opt (enum [ ("random", `Random); ("hill", `Hill) ]) `Random
         & info [ "method" ] ~docv:"METHOD"
             ~doc:"random (budgeted sampling) or hill (stochastic climbing).")
  in
  let budget_arg =
    Arg.(value & opt int 500 & info [ "budget" ] ~docv:"N"
           ~doc:"Number of objective evaluations to spend, for either method.")
  in
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed.")
  in
  let run method_ budget seed cfg
      { s_name = space_name; s_device = device; s_space = sp } =
    if budget < 1 then begin
      Format.eprintf "beast search: --budget must be at least 1 (got %d)@."
        budget;
      exit 2
    end;
    let objective, peak, _ = objective_for space_name device in
    let plan, build = feasible_of space_name sp in
    let feas = build () in
    with_config ~space:space_name ~engine:"search" cfg (fun _run_id ->
        let rng = Random.State.make [| seed |] in
        let result =
          match method_ with
          | `Random -> Search.random_search ~rng ~budget ~objective plan feas
          | `Hill -> Search.hill_climb ~rng ~budget ~objective plan feas
        in
        (match result with
        | None -> Format.printf "no feasible point found@."
        | Some c ->
          Format.printf "best score %.2f" c.Tuner.score;
          (match peak with
          | Some p when p > 0.0 ->
            Format.printf " (%.1f%% of peak)" (100.0 *. c.Tuner.score /. p)
          | _ -> ());
          (* Both methods spend exactly [budget] on a non-empty set. *)
          Format.printf " after %d evaluations@." budget;
          List.iter
            (fun (n, v) -> Format.printf "  %s = %s@." n (Value.to_string v))
            c.Tuner.bindings);
        0)
  in
  Cmd.v
    (Cmd.info "search"
       ~doc:
         "Statistical search over the feasible set instead of exhaustive \
          sweeping (the paper's future-work direction)")
    Term.(
      const run $ method_arg $ budget_arg $ seed_arg $ obs_config_term
      $ space_term)

(* Cross-shard trace correlation: stitch the per-shard JSONL traces of a
   sharded sweep into one Chrome trace, with each shard rendered as a
   process (named after its file) and each domain as a thread inside it.
   Per-shard timestamps are rebased to the shard's own first event, so
   shards that ran at different wall times (different CI jobs) still
   line up for side-by-side comparison. *)
let merge_traces files trace_out =
  (* Each shard's [run:meta] instant (emitted at sink install) carries
     its real coordinates; when every file has one with a distinct
     shard index, processes get pid = index + 1 and a self-describing
     name, so the stitched trace is correct whatever order the files
     were listed in. Traces without metadata (old files, unsharded
     runs) fall back to positional pids named after the file. *)
  let shard_meta events =
    Array.fold_left
      (fun acc ev ->
        if acc <> None || ev.Obs.ev_name <> "run:meta" then acc
        else
          let str k =
            match List.assoc_opt k ev.Obs.ev_args with
            | Some (Obs.Str s) -> Some s
            | _ -> None
          in
          let int k =
            match List.assoc_opt k ev.Obs.ev_args with
            | Some (Obs.Int i) -> Some i
            | _ -> None
          in
          match (int "shard_index", int "shard_of") with
          | Some i, Some n -> Some (i, n, str "run_id")
          | _ -> None)
      None events
  in
  let shards =
    List.map
      (fun f ->
        match Sink_jsonl.read_file f with
        | Error msg ->
          Format.eprintf "%s: %s@." f msg;
          exit 1
        | Ok events ->
          let start_ns =
            Array.fold_left
              (fun acc ev -> min acc ev.Obs.ev_ts_ns)
              max_int events
          in
          let start_ns = if start_ns = max_int then 0 else start_ns in
          (f, shard_meta events, start_ns, events))
      files
  in
  let metas = List.filter_map (fun (_, m, _, _) -> m) shards in
  let indices = List.sort_uniq compare (List.map (fun (i, _, _) -> i) metas) in
  let use_meta =
    List.length metas = List.length shards
    && List.length indices = List.length shards
  in
  let processes =
    List.mapi
      (fun pos (f, meta, start_ns, events) ->
        match (use_meta, meta) with
        | true, Some (i, n, run_id) ->
          let name =
            Printf.sprintf "shard %d/%d%s" i n
              (match run_id with
              | None -> ""
              | Some id -> Printf.sprintf " run %s" id)
          in
          (i + 1, name, start_ns, events)
        | _ ->
          ( pos + 1,
            Filename.remove_extension (Filename.basename f),
            start_ns,
            events ))
      shards
  in
  let rendered = Sink_chrome.render_processes processes in
  (match trace_out with
  | None -> print_string rendered
  | Some file ->
    Jsonx.write_file file rendered;
    Format.eprintf "wrote merged trace (%d shard%s) to %s@."
      (List.length files)
      (if List.length files = 1 then "" else "s")
      file)

let files_arg doc =
  Arg.(non_empty & pos_all file [] & info [] ~docv:"FILES" ~doc)

(* The statistics files merge, report and explain read, combined into
   one record: a lone file is taken as is unless [always_merge] (merge
   checks even one shard for completeness). An unreadable file or a
   failed merge is a one-line diagnostic and exit 1. *)
let load_merged ~always_merge files =
  let shards =
    List.map
      (fun f ->
        match Stats_io.of_file f with
        | Ok r -> r
        | Error msg ->
          Format.eprintf "%s: %s@." f msg;
          exit 1)
      files
  in
  match shards with
  | [ one ] when not always_merge -> one
  | shards -> (
    match Stats_io.merge shards with
    | Ok merged -> merged
    | Error msg ->
      Format.eprintf "merge: %s@." msg;
      exit 1)

let merge_cmd =
  let files_arg =
    files_arg
      "Shard statistics files written by sweep --stats-out (or, with \
       --traces, JSONL trace files written by sweep --trace FILE \
       --trace-format jsonl)."
  in
  let traces_arg =
    let doc =
      "Treat $(i,FILES) as per-shard JSONL traces and stitch them into \
       one Chrome trace (shard as process, domain as thread) instead of \
       merging statistics."
    in
    Arg.(value & flag & info [ "traces" ] ~doc)
  in
  let trace_out_arg =
    let doc = "With --traces: write the merged Chrome trace to $(docv) \
               (default: stdout)." in
    Arg.(
      value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)
  in
  let run files stats_out traces trace_out =
    if traces then merge_traces files trace_out
    else begin
      let merged = load_merged ~always_merge:true files in
      Format.printf "space %s: merged %d shard%s@." merged.Stats_io.space
        (List.length files)
        (if List.length files = 1 then "" else "s");
      Format.printf "%a" Engine.pp_stats (Stats_io.to_stats merged);
      match stats_out with
      | None -> ()
      | Some file ->
        Jsonx.write_file file (Stats_io.to_json merged);
        Format.eprintf "wrote merged statistics to %s@." file
    end
  in
  Cmd.v
    (Cmd.info "merge"
       ~doc:
         "Recombine the statistics of a sharded sweep (sweep --shard I/N \
          --stats-out) into the numbers an unsharded sweep would report; \
          with --stats-out, the merged file is byte-identical to the \
          unsharded one. With --traces, stitch per-shard JSONL traces \
          into one Chrome trace instead")
    Term.(const run $ files_arg $ stats_out_arg $ traces_arg $ trace_out_arg)

let report_cmd =
  let files_arg =
    files_arg
      "Statistics files written by sweep --metrics --stats-out; several \
       shard files are merged before reporting."
  in
  let top_arg =
    Arg.(
      value & opt int 10
      & info [ "top" ] ~docv:"K" ~doc:"Show the K hottest constraints.")
  in
  let run files top =
    let merged = load_merged ~always_merge:false files in
    let snap =
      match merged.Stats_io.metrics with
      | Some snap -> snap
      | None ->
        Format.eprintf
          "beast report: no \"metrics\" section in %s (sweep with \
           --metrics --stats-out)@."
          (String.concat ", " files);
        exit 1
    in
    Format.printf "space %s: %d survivors of %d points@."
      merged.Stats_io.space merged.Stats_io.survivors
      merged.Stats_io.loop_iterations;
    Report.write ~top Format.std_formatter snap;
    Format.pp_print_flush Format.std_formatter ()
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Render the metrics of one or more sweep statistics files \
          (percentile tables per constraint, loop-entry counts, \
          scheduler chunk skew); multiple shard files are merged into \
          exact fleet-level percentiles first")
    Term.(const run $ files_arg $ top_arg)

let explain_cmd =
  let files_arg =
    files_arg
      "Statistics files written by sweep --explain-out; several shard \
       files are merged (exactly, bucket for bucket) before rendering."
  in
  let top_arg =
    Arg.(
      value & opt int 5
      & info [ "top" ] ~docv:"K"
          ~doc:"Show the K largest dead outer-coordinate ranges.")
  in
  let run files top =
    let merged = load_merged ~always_merge:false files in
    match Explain.write ~top Format.std_formatter merged with
    | Ok () -> Format.pp_print_flush Format.std_formatter ()
    | Error msg ->
      Format.eprintf "beast explain: %s@." msg;
      exit 1
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Render the pruning provenance of an instrumented sweep (sweep \
          --explain-out): the exact constraint waterfall in evaluation \
          order, evaluation cost against selectivity with misplaced \
          constraints flagged, the largest dead outer-coordinate ranges, \
          and the per-depth survival funnel; multiple shard files are \
          merged exactly first")
    Term.(const run $ files_arg $ top_arg)

let export_cmd =
  let run { s_space; _ } =
    match Print.space_to_string s_space with
    | Ok text -> print_string text
    | Error e ->
      Format.eprintf "cannot serialize: %a@." Print.pp_error e;
      exit 1
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:
         "Serialize a space to the textual notation (the inverse of \
          loading a .beast file); closure-backed spaces cannot be \
          serialized")
    Term.(const run $ space_term)

(* ------------------------------------------------------------------ *)
(* Live introspection: beast top (run record viewer), beast runs      *)
(* ------------------------------------------------------------------ *)

let top_cmd =
  let record_arg =
    let doc =
      "Run record written by sweep --runs DIR: DIR/RUN_ID.json, a fixed \
       name with --run-id."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"RECORD" ~doc)
  in
  let once_arg =
    let doc = "Print one snapshot and exit instead of following." in
    Arg.(value & flag & info [ "once" ] ~doc)
  in
  let interval_arg =
    let doc = "Seconds between redraws when following (default 1)." in
    Arg.(value & opt float 1.0 & info [ "interval" ] ~docv:"SECONDS" ~doc)
  in
  let fmt_eta = function
    | None -> "-"
    | Some s when s < 0.0 -> "-"
    | Some s -> Printf.sprintf "%.0fs" s
  in
  let render ppf (r : Status.record) =
    let lines = ref 0 in
    let line fmt =
      Format.kfprintf
        (fun ppf ->
          incr lines;
          Format.fprintf ppf "@.")
        ppf fmt
    in
    line "run %s  %s%s  %s  pid %d  %s%s" r.run_id r.space
      (match r.shard with
      | None -> ""
      | Some (i, n) -> Printf.sprintf " shard %d/%d" i n)
      r.engine r.pid
      (Status.state_name r.state)
      (match r.exit_code with
      | None -> ""
      | Some c -> Printf.sprintf " (exit %d)" c);
    line "chunks %d/%d  points %s (%s/s)  survivors %s (%.2f%%)"
      r.chunks_done r.chunks_total
      (Units.si_int r.points)
      (Units.si_int (int_of_float r.points_per_s))
      (Units.si_int r.survivors)
      (100.0 *. r.survivor_rate);
    line "elapsed %.1fs  eta %s  checkpoint %s" r.elapsed_s
      (fmt_eta r.eta_s)
      (match r.checkpoint_age_s with
      | None -> "-"
      | Some age -> Printf.sprintf "%.1fs ago" age);
    List.iter
      (fun (dom, points, survivors) ->
        line "  dom %d: %s points, %s survivors" dom (Units.si_int points)
          (Units.si_int survivors))
      r.domains;
    !lines
  in
  let run file once interval =
    if interval <= 0.0 then begin
      Format.eprintf "beast top: --interval must be positive@.";
      exit 2
    end;
    let tty = Unix.isatty Unix.stdout in
    let read_record () = Status.of_file file in
    if once || not tty then begin
      (* One plain snapshot (or, when following off-tty, a snapshot
         line block per interval — greppable, no control codes). *)
      let rec loop first =
        match read_record () with
        | Error msg ->
          if first then begin
            Format.eprintf "beast top: %s: %s@." file msg;
            exit 1
          end
          else begin
            Unix.sleepf interval;
            loop false
          end
        | Ok v ->
          ignore (render Format.std_formatter v);
          Format.pp_print_flush Format.std_formatter ();
          if (not once) && v.Status.state = Status.Running then begin
            Unix.sleepf interval;
            loop false
          end
      in
      loop true
    end
    else begin
      (* Full-redraw follow mode: repaint in place with cursor-up, so
         the terminal shows one live panel instead of a scrolling log. *)
      let prev_lines = ref 0 in
      let rec loop first =
        (match read_record () with
        | Error msg ->
          if first then begin
            Format.eprintf "beast top: %s: %s (waiting)@." file msg;
            Format.pp_print_flush Format.err_formatter ()
          end
        | Ok v ->
          if !prev_lines > 0 then
            print_string (Printf.sprintf "\027[%dA" !prev_lines);
          let buf = Buffer.create 512 in
          let ppf = Format.formatter_of_buffer buf in
          let n = render ppf v in
          Format.pp_print_flush ppf ();
          (* Clear each repainted line before writing over it, so a
             shrinking field never leaves stale characters behind. *)
          String.split_on_char '\n' (Buffer.contents buf)
          |> List.iter (fun l ->
                 if l <> "" then print_string ("\027[2K" ^ l ^ "\n"));
          prev_lines := n;
          flush stdout;
          if v.Status.state <> Status.Running then raise Exit);
        Unix.sleepf interval;
        loop false
      in
      try loop true with Exit -> ()
    end
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Follow the run record of a running sweep (sweep --runs DIR): \
          chunk progress, throughput, survivor rate, pruning-aware ETA, \
          checkpoint age and per-domain utilization. Redraws in place on \
          a tty; plain snapshots with --once or when piped")
    Term.(const run $ record_arg $ once_arg $ interval_arg)

let runs_cmd =
  let target_arg =
    let doc =
      "Runs directory written by sweep --runs (default $(b,runs)), or a \
       single run record to inspect."
    in
    Arg.(value & pos 0 string "runs" & info [] ~docv:"DIR|FILE" ~doc)
  in
  let describe (r : Status.record) =
    Format.printf "%-12s  %-14s  %-7s  %-10s  %-11s  %-4s  %.1fs@." r.run_id
      r.space
      (match r.shard with
      | None -> "-"
      | Some (i, n) -> Printf.sprintf "%d/%d" i n)
      r.engine
      (Status.state_name r.state)
      (match r.exit_code with
      | None -> "-"
      | Some c -> string_of_int c)
      r.elapsed_s
  in
  let header () =
    Format.printf "%-12s  %-14s  %-7s  %-10s  %-11s  %-4s  %s@." "run" "space"
      "shard" "engine" "state" "exit" "elapsed"
  in
  let prune_arg =
    let doc =
      "Remove finished and unreadable records from the directory \
       (running records whose process is still alive are always kept); \
       restrict with --keep/--older-than, preview with --dry-run."
    in
    Arg.(value & flag & info [ "prune" ] ~doc)
  in
  let keep_arg =
    let doc = "With --prune: keep the $(docv) most recently written records." in
    Arg.(value & opt (some int) None & info [ "keep" ] ~docv:"N" ~doc)
  in
  let older_than_arg =
    let doc =
      "With --prune: only remove records last written more than $(docv) \
       seconds ago."
    in
    Arg.(
      value
      & opt (some float) None
      & info [ "older-than" ] ~docv:"SECONDS" ~doc)
  in
  let dry_run_arg =
    let doc = "With --prune: print what would be removed, remove nothing." in
    Arg.(value & flag & info [ "dry-run" ] ~doc)
  in
  (* A "running" record may belong to a process that died without
     finalizing (SIGKILL, power loss); signal 0 probes liveness. EPERM
     means the pid exists under another user — treat it as alive. *)
  let pid_alive pid =
    match Unix.kill pid 0 with
    | () -> true
    | exception Unix.Unix_error (Unix.ESRCH, _, _) -> false
    | exception _ -> true
  in
  let prune_dir dir ~keep ~older_than ~dry_run =
    let now = Unix.gettimeofday () in
    let entries =
      Status.entries ~dir
      |> List.map (fun (file, r) ->
             let mtime =
               match Unix.stat file with
               | st -> st.Unix.st_mtime
               | exception Unix.Unix_error _ -> 0.0
             in
             (file, r, mtime))
      (* Newest first, so --keep N protects the N most recent. *)
      |> List.sort (fun (_, _, a) (_, _, b) -> compare b a)
    in
    let keep_n = Option.value keep ~default:0 in
    let victims =
      List.filteri
        (fun pos (_, r, mtime) ->
          pos >= keep_n
          && (match older_than with
             | Some s -> now -. mtime > s
             | None -> true)
          &&
          match r with
          | Error _ -> true (* unreadable: prune *)
          | Ok r -> not (r.Status.state = Status.Running && pid_alive r.Status.pid))
        entries
    in
    List.iter
      (fun (file, r, _) ->
        let why =
          match r with
          | Error _ -> "unreadable"
          | Ok r -> Status.state_name r.Status.state
        in
        if dry_run then Format.printf "would remove %s (%s)@." file why
        else begin
          (try Sys.remove file with Sys_error _ -> ());
          Format.printf "removed %s (%s)@." file why
        end)
      victims;
    Format.printf "%s %d of %d run record%s in %s@."
      (if dry_run then "would prune" else "pruned")
      (List.length victims) (List.length entries)
      (if List.length entries = 1 then "" else "s")
      dir
  in
  let run target prune keep older_than dry_run =
    if (keep <> None || older_than <> None || dry_run) && not prune then begin
      Format.eprintf
        "beast runs: --keep, --older-than and --dry-run need --prune@.";
      exit 2
    end;
    (match keep with
    | Some n when n < 0 ->
      Format.eprintf "beast runs: --keep must be non-negative@.";
      exit 2
    | _ -> ());
    (match older_than with
    | Some s when s < 0.0 ->
      Format.eprintf "beast runs: --older-than must be non-negative@.";
      exit 2
    | _ -> ());
    if Sys.file_exists target && not (Sys.is_directory target) then begin
      if prune then begin
        Format.eprintf
          "beast runs: --prune needs a runs directory, not a file@.";
        exit 2
      end;
      match Status.of_file target with
      | Error msg ->
        Format.eprintf "beast runs: %s: %s@." target msg;
        exit 1
      | Ok r ->
        header ();
        describe r
    end
    else if prune then prune_dir target ~keep ~older_than ~dry_run
    else begin
      let entries = Status.entries ~dir:target in
      List.iter
        (fun (file, r) ->
          match r with
          | Error msg ->
            Format.eprintf "beast runs: skipping %s: %s@." file msg
          | Ok _ -> ())
        entries;
      match
        List.filter_map (fun (_, r) -> Result.to_option r) entries
      with
      | [] ->
        Format.eprintf "beast runs: no readable run records in %s@." target;
        exit 1
      | records ->
        header ();
        List.iter describe records
    end
  in
  Cmd.v
    (Cmd.info "runs"
       ~doc:
         "List the run records in a runs directory (sweep --runs DIR): \
          run id, space, shard, engine, state, exit code and elapsed \
          time — or inspect a single record. With --prune, remove \
          finished and unreadable records (never a live run's)")
    Term.(
      const run $ target_arg $ prune_arg $ keep_arg $ older_than_arg
      $ dry_run_arg)

(* ------------------------------------------------------------------ *)
(* Cross-run archive: beast archive / diff / trends                    *)
(* ------------------------------------------------------------------ *)

let archive_store_arg =
  let doc =
    "Archive directory (default: $(b,\\$BEAST_ARCHIVE) or \
     $(b,.beast/archive))."
  in
  Arg.(value & opt (some string) None & info [ "dir" ] ~docv:"DIR" ~doc)

let describe_record (r : Archive.record) =
  let m = r.Archive.meta in
  Printf.sprintf "%s %s%s%s" m.Archive.a_kind m.Archive.a_label
    (match m.Archive.a_engine with
    | None -> ""
    | Some e -> " · engine " ^ e)
    (if m.Archive.a_seq > 0 then
       Printf.sprintf " · %s (seq %d)" m.Archive.a_id m.Archive.a_seq
     else "")

let archive_ingest_cmd =
  let files_arg =
    files_arg
      "Sweep statistics files (sweep --stats-out/--explain-out) or JSON \
       objects with a $(b,bench) field to append to the archive."
  in
  let engine_override_arg =
    let doc = "Record $(docv) as the producing engine spec." in
    Arg.(value & opt (some string) None & info [ "engine" ] ~docv:"NAME" ~doc)
  in
  let run_id_override_arg =
    let doc =
      "Record $(docv) as the run id when the payload carries none \
       (distinct run ids keep otherwise-identical payloads as separate \
       timeline points)."
    in
    Arg.(value & opt (some string) None & info [ "run-id" ] ~docv:"ID" ~doc)
  in
  let commit_override_arg =
    let doc =
      "Record $(docv) as the producing git commit (default: \
       $(b,\\$BEAST_COMMIT), then $(b,\\$GITHUB_SHA))."
    in
    Arg.(value & opt (some string) None & info [ "commit" ] ~docv:"SHA" ~doc)
  in
  let host_override_arg =
    let doc = "Record $(docv) as the producing host (default: this host)." in
    Arg.(value & opt (some string) None & info [ "host" ] ~docv:"NAME" ~doc)
  in
  let run files dir engine run_id commit host =
    let dir = resolve_archive_dir dir in
    let commit =
      match commit with Some _ as c -> c | None -> Archive.commit_from_env ()
    in
    let host =
      match host with Some _ as h -> h | None -> Some (Unix.gethostname ())
    in
    let failed = ref false in
    List.iter
      (fun file ->
        let outcome =
          Result.bind (Jsonx.of_file file)
            (Archive.ingest ~dir ?engine ?run_id ?commit ?host)
        in
        match outcome with
        | Ok (r, true) ->
          Format.printf "archived %s as %s (seq %d)@." file
            r.Archive.meta.Archive.a_id r.Archive.meta.Archive.a_seq
        | Ok (r, false) ->
          Format.printf "%s already archived as %s@." file
            r.Archive.meta.Archive.a_id
        | Error msg ->
          Format.eprintf "beast archive: %s: %s@." file msg;
          failed := true)
      files;
    if !failed then exit 1
  in
  Cmd.v
    (Cmd.info "ingest"
       ~doc:
         "Append run results to the archive: one content-addressed \
          record per file, deduplicated by content, tagged with engine, \
          commit and host")
    Term.(
      const run $ files_arg $ archive_store_arg $ engine_override_arg
      $ run_id_override_arg $ commit_override_arg $ host_override_arg)

let archive_list_cmd =
  let space_filter_arg =
    let doc = "Only records of this space (or bench name)." in
    Arg.(value & opt (some string) None & info [ "space" ] ~docv:"NAME" ~doc)
  in
  let engine_filter_arg =
    let doc = "Only records produced by this engine spec." in
    Arg.(value & opt (some string) None & info [ "engine" ] ~docv:"NAME" ~doc)
  in
  let commit_filter_arg =
    let doc = "Only records produced at this git commit." in
    Arg.(value & opt (some string) None & info [ "commit" ] ~docv:"SHA" ~doc)
  in
  let run dir space engine commit =
    let dir = resolve_archive_dir dir in
    let records, errors = Archive.load ~dir in
    List.iter
      (fun (file, msg) ->
        Format.eprintf "beast archive: skipping %s: %s@." file msg)
      errors;
    let keep (r : Archive.record) =
      let m = r.Archive.meta in
      (match space with None -> true | Some s -> m.Archive.a_label = s)
      && (match engine with
         | None -> true
         | Some e -> m.Archive.a_engine = Some e)
      && match commit with
         | None -> true
         | Some c -> m.Archive.a_commit = Some c
    in
    match List.filter keep records with
    | [] ->
      Format.eprintf "beast archive: no matching records in %s@." dir;
      exit 1
    | records ->
      Format.printf "%-4s  %-12s  %-6s  %-18s  %-12s  %-12s  %-8s  %s@." "seq"
        "id" "kind" "label" "engine" "run" "commit" "host";
      List.iter
        (fun (r : Archive.record) ->
          let m = r.Archive.meta in
          let opt = Option.value ~default:"-" in
          let commit8 =
            match m.Archive.a_commit with
            | None -> "-"
            | Some c -> if String.length c > 8 then String.sub c 0 8 else c
          in
          Format.printf "%-4d  %-12s  %-6s  %-18s  %-12s  %-12s  %-8s  %s@."
            m.Archive.a_seq m.Archive.a_id m.Archive.a_kind m.Archive.a_label
            (opt m.Archive.a_engine) (opt m.Archive.a_run_id) commit8
            (opt m.Archive.a_host))
        records
  in
  Cmd.v
    (Cmd.info "list"
       ~doc:"List archive records, filterable by space, engine and commit")
    Term.(
      const run $ archive_store_arg $ space_filter_arg $ engine_filter_arg
      $ commit_filter_arg)

let archive_show_cmd =
  let id_arg =
    let doc = "Record id (a unique prefix suffices)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ID" ~doc)
  in
  let run dir id =
    let dir = resolve_archive_dir dir in
    match Archive.find ~dir id with
    | Error msg ->
      Format.eprintf "beast archive: %s@." msg;
      exit 1
    | Ok r ->
      let m = r.Archive.meta in
      let opt = Option.value ~default:"-" in
      Format.printf "id      %s  (seq %d)@." m.Archive.a_id m.Archive.a_seq;
      Format.printf "kind    %s@." m.Archive.a_kind;
      Format.printf "label   %s@." m.Archive.a_label;
      Format.printf "engine  %s@." (opt m.Archive.a_engine);
      Format.printf "run     %s@." (opt m.Archive.a_run_id);
      Format.printf "commit  %s@." (opt m.Archive.a_commit);
      Format.printf "host    %s@." (opt m.Archive.a_host);
      Format.printf "series  (%d)@." (List.length r.Archive.series);
      List.iter
        (fun (name, value) ->
          Format.printf "  %-52s %14s@." name (Units.float_g value))
        r.Archive.series
  in
  Cmd.v
    (Cmd.info "show"
       ~doc:
         "Show one archive record: identity metadata and every extracted \
          series value (a tampered record is rejected, not shown)")
    Term.(const run $ archive_store_arg $ id_arg)

let archive_cmd =
  Cmd.group
    (Cmd.info "archive"
       ~doc:
         "The cross-run performance archive: append-only, \
          content-addressed records of sweep statistics and bench \
          results under \\$BEAST_ARCHIVE (default .beast/archive)")
    [ archive_ingest_cmd; archive_list_cmd; archive_show_cmd ]

let flag_name = function
  | Archive.Same -> "same"
  | Archive.Changed -> "changed"
  | Archive.Regressed -> "regressed"
  | Archive.Only_a -> "only A"
  | Archive.Only_b -> "only B"

let diff_cmd =
  let a_arg =
    let doc =
      "Baseline run: a stats/bench/record file, or an archive id prefix."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"A" ~doc)
  in
  let b_arg =
    let doc =
      "Candidate run: a stats/bench/record file, or an archive id prefix."
    in
    Arg.(required & pos 1 (some string) None & info [] ~docv:"B" ~doc)
  in
  let threshold_arg =
    let doc =
      "Allowed growth of a timing series from A to B, in percent; \
       count series flag on any change."
    in
    Arg.(value & opt float 10.0 & info [ "threshold" ] ~docv:"PCT" ~doc)
  in
  let json_arg =
    let doc = "Emit the machine-readable verdict as JSON on stdout." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  (* An operand that names an existing file is loaded directly (an
     archive record file revalidates; anything else ingests transiently
     without touching the store); otherwise it resolves as an id prefix
     in the archive directory. *)
  let resolve dir spec =
    if Sys.file_exists spec && not (Sys.is_directory spec) then
      Result.map_error
        (fun msg -> Printf.sprintf "%s: %s" spec msg)
        (Result.bind (Jsonx.of_file spec) (fun json ->
             if Jsonx.member_opt "beast_archive" json <> None then
               Archive.of_jsonx json
             else Archive.make ~seq:0 json))
    else Archive.find ~dir spec
  in
  let run a b dir threshold json =
    let dir = resolve_archive_dir dir in
    let get spec =
      match resolve dir spec with
      | Ok r -> r
      | Error msg ->
        Format.eprintf "beast diff: %s@." msg;
        exit 1
    in
    let ra = get a and rb = get b in
    let deltas = Archive.diff ~threshold_pct:threshold ra rb in
    let flagged = Archive.regressions deltas in
    if json then begin
      let num = function
        | None -> Jsonx.Null
        | Some v -> Jsonx.Float v
      in
      let delta_json (d : Archive.delta) =
        Jsonx.Obj
          [
            ("name", Jsonx.Str d.Archive.d_name);
            ( "class",
              Jsonx.Str (if d.Archive.d_timing then "timing" else "count") );
            ("a", num d.Archive.d_a);
            ("b", num d.Archive.d_b);
            ("flag", Jsonx.Str (flag_name d.Archive.d_flag));
          ]
      in
      print_string
        (Jsonx.pretty
           (Jsonx.Obj
              [
                ("beast_diff", Jsonx.Int 1);
                ("a", Jsonx.Str (describe_record ra));
                ("b", Jsonx.Str (describe_record rb));
                ("threshold_pct", Jsonx.Float threshold);
                ("compared", Jsonx.Int (List.length deltas));
                ("deltas", Jsonx.Arr (List.map delta_json deltas));
                ( "regressions",
                  Jsonx.Arr
                    (List.map
                       (fun (d : Archive.delta) -> Jsonx.Str d.Archive.d_name)
                       flagged) );
                ( "verdict",
                  Jsonx.Str (if flagged = [] then "ok" else "regression") );
              ]))
    end
    else begin
      Format.printf "A: %s@." (describe_record ra);
      Format.printf "B: %s@." (describe_record rb);
      Format.printf "%-52s %14s %14s %10s  %s@." "series" "A" "B" "delta"
        "flag";
      List.iter
        (fun (d : Archive.delta) ->
          let fmt = function
            | None -> "-"
            | Some v -> Units.float_g v
          in
          let rel =
            match (d.Archive.d_a, d.Archive.d_b) with
            | Some x, Some y when x <> 0.0 ->
              Units.signed_pct (100.0 *. (y -. x) /. x)
            | _ -> "n/a"
          in
          Format.printf "%-52s %14s %14s %10s  %s@." d.Archive.d_name
            (fmt d.Archive.d_a) (fmt d.Archive.d_b) rel
            (if d.Archive.d_flag = Archive.Same then ""
             else flag_name d.Archive.d_flag))
        deltas;
      Format.printf "compared %d series: %d identical, %d flagged@."
        (List.length deltas)
        (List.length deltas - List.length flagged)
        (List.length flagged);
      if flagged = [] then
        Format.printf "verdict: OK (no regressions at threshold %g%%)@."
          threshold
      else
        Format.printf "verdict: REGRESSION (%s)@."
          (String.concat ", "
             (List.map (fun (d : Archive.delta) -> d.Archive.d_name) flagged))
    end;
    if flagged <> [] then exit 4
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Compare two archived (or on-disk) run results series by \
          series: funnel counts and per-constraint fired counts flag on \
          any change, timing series (bench timings, histogram \
          percentiles) on growth beyond --threshold. Exit 0 when clean, \
          4 on regression")
    Term.(
      const run $ a_arg $ b_arg $ archive_store_arg $ threshold_arg $ json_arg)

let trends_cmd =
  let space_filter_arg =
    let doc = "Only timelines of this space (or bench name)." in
    Arg.(value & opt (some string) None & info [ "space" ] ~docv:"NAME" ~doc)
  in
  let engine_filter_arg =
    let doc = "Only timelines produced by this engine spec." in
    Arg.(value & opt (some string) None & info [ "engine" ] ~docv:"NAME" ~doc)
  in
  let series_filter_arg =
    let doc = "Only series whose name starts with $(docv)." in
    Arg.(value & opt (some string) None & info [ "series" ] ~docv:"PREFIX" ~doc)
  in
  let gate_arg =
    let doc =
      "Exit 4 if any timing series' detected shift is an active upward \
       regression beyond --threshold — the trajectory-aware CI gate."
    in
    Arg.(value & flag & info [ "gate" ] ~doc)
  in
  let threshold_arg =
    let doc = "Allowed upward shift of a timing series, in percent." in
    Arg.(value & opt float 25.0 & info [ "threshold" ] ~docv:"PCT" ~doc)
  in
  let run dir space engine series gate threshold =
    let dir = resolve_archive_dir dir in
    let records, errors = Archive.load ~dir in
    List.iter
      (fun (file, msg) ->
        Format.eprintf "beast trends: skipping %s: %s@." file msg)
      errors;
    let records =
      List.filter
        (fun (r : Archive.record) ->
          let m = r.Archive.meta in
          (match space with None -> true | Some s -> m.Archive.a_label = s)
          && match engine with
             | None -> true
             | Some e -> m.Archive.a_engine = Some e)
        records
    in
    if records = [] then begin
      Format.eprintf
        "beast trends: no archive records in %s (archive runs with sweep \
         --archive or beast archive ingest)@."
        dir;
      exit 1
    end;
    let groups = Archive.trends ?series_prefix:series records in
    List.iter
      (fun (g : Archive.group) ->
        Format.printf "%s · %s%s  (%d record%s)@." g.Archive.g_label
          g.Archive.g_kind
          (match g.Archive.g_engine with
          | None -> ""
          | Some e -> " · engine " ^ e)
          g.Archive.g_records
          (if g.Archive.g_records = 1 then "" else "s");
        Format.printf "  %-46s %3s  %-14s %12s %10s %12s  %s@." "series" "n"
          "trend" "median" "mad" "last" "shift";
        List.iter
          (fun (t : Archive.trend) ->
            let values =
              Array.of_list
                (List.map (fun (p : Archive.point) -> p.Archive.p_value)
                   t.Archive.t_points)
            in
            let n = Array.length values in
            let window =
              if n <= 14 then values else Array.sub values (n - 14) 14
            in
            let shift =
              match t.Archive.t_shift with
              | None -> "-"
              | Some s ->
                let p = List.nth t.Archive.t_points s.Archive.c_index in
                Printf.sprintf "%s -> %s @seq %d%s"
                  (Units.float_g s.Archive.c_before)
                  (Units.float_g s.Archive.c_after)
                  p.Archive.p_seq
                  (match p.Archive.p_commit with
                  | None -> ""
                  | Some c ->
                    Printf.sprintf " (commit %s)"
                      (if String.length c > 8 then String.sub c 0 8 else c))
            in
            Format.printf "  %-46s %3d  %-14s %12s %10s %12s  %s@."
              t.Archive.t_name n
              (Report.sparkline window)
              (Units.float_g t.Archive.t_median)
              (Units.float_g t.Archive.t_mad)
              (if n = 0 then "-" else Units.float_g values.(n - 1))
              shift)
          g.Archive.g_trends;
        Format.printf "@.")
      groups;
    if gate then begin
      (* The gate only fires on timing series whose shift is still the
         current regime: the change-point grew past the threshold AND
         the latest point is still above it. A regression that was since
         fixed keeps its historical shift in the table but stops failing
         CI. Count drift is the deterministic baseline gate's job. *)
      let failures =
        List.concat_map
          (fun (g : Archive.group) ->
            List.filter_map
              (fun (t : Archive.trend) ->
                match t.Archive.t_shift with
                | Some s when t.Archive.t_timing ->
                  let limit =
                    s.Archive.c_before *. (1.0 +. (threshold /. 100.0))
                  in
                  let last =
                    match List.rev t.Archive.t_points with
                    | p :: _ -> p.Archive.p_value
                    | [] -> 0.0
                  in
                  if s.Archive.c_after > limit && last > limit then
                    Some
                      (Printf.sprintf "%s %s: %s -> %s (last %s)"
                         g.Archive.g_label t.Archive.t_name
                         (Units.float_g s.Archive.c_before)
                         (Units.float_g s.Archive.c_after)
                         (Units.float_g last))
                  else None
                | _ -> None)
              g.Archive.g_trends)
          groups
      in
      if failures = [] then
        Format.printf
          "trends gate: trajectory clean (threshold %g%%, %d record%s)@."
          threshold (List.length records)
          (if List.length records = 1 then "" else "s")
      else begin
        List.iter
          (fun f -> Format.eprintf "trends gate: regression: %s@." f)
          failures;
        exit 4
      end
    end
  in
  Cmd.v
    (Cmd.info "trends"
       ~doc:
         "Render the archived timeline of every series as a sparkline \
          table with robust (median/MAD) change-point detection, \
          flagging the first record — and commit — where a series \
          shifted; with --gate, exit 4 when a timing series' active \
          regime is an upward regression beyond --threshold")
    Term.(
      const run $ archive_store_arg $ space_filter_arg $ engine_filter_arg
      $ series_filter_arg $ gate_arg $ threshold_arg)

(* ------------------------------------------------------------------ *)
(* engines                                                             *)
(* ------------------------------------------------------------------ *)

let engines_cmd =
  (* Generated from the registry's catalog, so this listing (and the
     --engine help text above) can never drift from what [find]
     accepts. *)
  let run () =
    List.iter
      (fun e ->
        let caps =
          List.filter_map
            (fun (flag, label) -> if flag then Some label else None)
            [
              (e.Engine_registry.e_propagate_default, "propagate");
              (e.Engine_registry.e_opaque, "opaque");
              (e.Engine_registry.e_resumable, "resumable");
            ]
        in
        Format.printf "%-18s  [%s]  %s@." e.Engine_registry.e_spec
          (String.concat "," caps)
          e.Engine_registry.e_descr)
      Engine_registry.catalog
  in
  Cmd.v
    (Cmd.info "engines"
       ~doc:
         "List the evaluation engines accepted by --engine, with their \
          parameters and one-line descriptions (generated from the engine \
          registry)")
    Term.(const run $ const ())

let main =
  Cmd.group
    (Cmd.info "beast" ~version:"1.0.0"
       ~doc:
         "Search space generation and pruning for autotuners (IPDPSW'16 \
          reproduction)")
    [ sweep_cmd; enumerate_cmd; count_cmd; sample_cmd; dot_cmd; codegen_cmd;
      tune_cmd; occupancy_cmd; funnel_cmd; search_cmd; merge_cmd; report_cmd;
      explain_cmd; export_cmd; top_cmd; runs_cmd; archive_cmd; diff_cmd;
      trends_cmd; engines_cmd ]

(* Every command's stdout leaves through the one flush below, inside
   the handler that maps [Sys_error] — from a file, or from a stdout
   that cannot take the output, such as a full disk — to one line and
   exit 1. Any other exception is an internal error, exit 125, as
   Cmdliner would report it. *)
let () =
  let code =
    try
      let code = Cmd.eval ~catch:false main in
      Format.pp_print_flush Format.std_formatter ();
      flush stdout;
      code
    with
    | Sys_error msg -> io_failure msg
    | e ->
      Format.eprintf "beast: internal error, uncaught exception:@\n       %s@."
        (Printexc.to_string e);
      125
  in
  exit code
