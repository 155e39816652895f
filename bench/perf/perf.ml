(* The repository benchmark: closed-loop passes of `beast` invocations
   over four workloads, every output checked, every end-to-end metric
   printed with its unit. Run from the root of a built checkout:

     perf.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
     perf.exe --compare A.json B.json
     perf.exe --regen-ref

   One client runs the invocations one after another; each invocation
   uses at most two threads. Without --workload the four workloads run
   round-robin, a pass of each in turn, so a slow spell on a shared
   machine hits all of them alike. Results go to BENCH_perf.json and,
   as one JSON object, to the last line of standard output. See
   bench/perf/README.md. *)

open Beast_obs
open Beast_perf
module W = Workload

let beast = "_build/default/bin/beast.exe"
let spawner = "_build/default/bench/perf/spawner"
let template = "examples/spaces/gemm_k40c_scaled.beast"
let stencil = "examples/spaces/stencil.beast"
let ref_dir = "bench/perf/ref"
let work = "_perf"
let timeout_s = 60.0
let cold_passes = 3

(* The calibration this machine reads when no neighbour slows it, so
   that scaled times stay close to seconds; see [calibrate]. *)
let reference_calibration_s = 0.003

(* `beast engines` runs behind the traced run's process start time. *)
let startup_runs = 21

let end_to_end =
  [
    ("setup_s", "s");
    ("pass_s_p50", "s");
    ("pass_s_p90", "s");
    ("cpu_s_p50", "s");
    ("peak_rss_mb", "MB");
    ("iters_per_s", "1/s");
  ]

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("perf: " ^ msg);
      exit 2)
    fmt

let first_line s =
  match String.split_on_char '\n' (String.trim s) with l :: _ -> l | [] -> ""

type env = {
  dir : string;  (** absolute path of the work directory *)
  native_cache : string;
  input : W.file -> string;
  refs : (string * string) list;
  beast_path : string;
  spawner : Proc.spawner;
}

let all_ops ~seed =
  W.probe ~seed @ List.concat_map (fun w -> w.W.ops ~seed) W.all

(* Inputs, caches and temporaries all live under the work directory,
   which children and the in-process native compiles get as their
   TMPDIR and native binary cache. *)
let make_env ~load_refs =
  if not (List.for_all Sys.file_exists [ template; beast; spawner ]) then
    die "run from the root of a checkout where %s and %s are built (see %s)"
      beast spawner "bench/perf/run.sh";
  let cwd = Sys.getcwd () in
  let dir = Filename.concat cwd work in
  let sub name = Filename.concat dir name in
  let native_cache = sub "native-cache" and tmp = sub "tmp" in
  let in_dir = sub "in" in
  List.iter Proc.mkdir_p [ native_cache; tmp; in_dir ];
  Unix.putenv "TMPDIR" tmp;
  Unix.putenv "BEAST_NATIVE_CACHE" native_cache;
  let input f = Filename.concat in_dir (W.file_key f ^ ".beast") in
  let read path = Option.get (Proc.read_file path) in
  let template = read template and stencil = read stencil in
  List.iter
    (fun f -> Proc.write_file (input f) (W.source ~template ~stencil f))
    (W.files (all_ops ~seed:0));
  let reference key =
    let path = Filename.concat ref_dir (key ^ ".json") in
    match Proc.read_file path with
    | Some r -> (key, r)
    | None -> die "missing reference %s (regenerate with --regen-ref)" path
  in
  let refs =
    if load_refs then List.map reference (W.ref_keys (all_ops ~seed:0))
    else []
  in
  let s = Proc.start (Filename.concat cwd spawner) in
  at_exit (fun () -> Proc.stop s);
  let beast_path = Filename.concat cwd beast in
  { dir; native_cache; input; refs; beast_path; spawner = s }

(* ------------------------------------------------------------------ *)
(* Passes                                                              *)
(* ------------------------------------------------------------------ *)

type pass = {
  invocations : int;
  wall_s : float;
  cpu_s : float;
  rss_kb : int;
  failures : string list;
}

(* Runs [ops] one after another; outputs are checked after the pass's
   clock stops. *)
let run_pass e ~out_dir ops =
  let path = Filename.concat out_dir in
  let t0 = Clock.now_ns () in
  let runs =
    List.mapi
      (fun i op ->
        let argv =
          Array.of_list (e.beast_path :: W.argv ~input:e.input ~out:path op)
        in
        let stdout = path (Printf.sprintf "%d.stdout" i) in
        let stderr = path (Printf.sprintf "%d.stderr" i) in
        (op, stdout, stderr, Proc.run e.spawner ~timeout_s ~stdout ~stderr argv))
      ops
  in
  let wall_s = Clock.elapsed_s ~since:t0 in
  let read f = Option.value (Proc.read_file f) ~default:"" in
  let check (op, stdout, stderr, r) =
    let result =
      if r.Proc.timed_out then
        Error (Printf.sprintf "timed out after %.0f s" timeout_s)
      else if r.Proc.code <> 0 then
        Error
          (Printf.sprintf "exit %d: %s" r.Proc.code (first_line (read stderr)))
      else
        W.check ~refs:e.refs
          ~read:(fun f -> Proc.read_file (path f))
          ~stdout:(read stdout) op
    in
    Result.fold result ~ok:(fun () -> None) ~error:(fun m ->
        Some (W.label op ^ ": " ^ m))
  in
  {
    invocations = List.length ops;
    wall_s;
    cpu_s = List.fold_left (fun s (_, _, _, r) -> s +. r.Proc.cpu_s) 0.0 runs;
    rss_kb = List.fold_left (fun m (_, _, _, r) -> max m r.Proc.maxrss_kb) 0 runs;
    failures = List.filter_map check runs;
  }

(* The machine's speed around a pass: the time to start and reap a
   trivial process that shares no code with the repository, five times.
   On a shared machine a busy neighbour slows this about as much as it
   slows the workloads, so each pass's times are scaled by
   [reference_calibration_s] over the mean of the calibrations just
   before and just after it. That removes most of the drift between
   runs (measurements in README.md). *)
let calibrate e =
  let t0 = Clock.now_ns () in
  for _ = 1 to 5 do
    ignore
      (Proc.run e.spawner ~timeout_s ~stdout:"/dev/null" ~stderr:"/dev/null"
         [| "true" |])
  done;
  Clock.elapsed_s ~since:t0

type result = {
  name : string;
  attempted : int;
  failures : string list;
  metrics : (string * string * float) list;
  notes : string list;
  extra : (string * Jsonx.t) list;  (** more fields for BENCH_perf.json *)
}

(* A pass with the mean calibration around it. *)
type calibrated = { pass : pass; calib_s : float }

(* One workload's passes as they accumulate. *)
type acc = {
  w : W.t;
  ops : W.op list;
  mutable cold : calibrated list;
  mutable warm : calibrated list;
  mutable count : int;
  mutable failed : string list;
}

let acc ~seed w =
  { w; ops = w.W.ops ~seed; cold = []; warm = []; count = 0; failed = [] }

let out_dir e w sub =
  List.fold_left Filename.concat e.dir [ "out"; w.W.name; sub ]

let record a (p : pass) =
  a.count <- a.count + p.invocations;
  a.failed <- a.failed @ p.failures

let calibrated_pass e a ~out_dir =
  let before = calibrate e in
  let pass = run_pass e ~out_dir a.ops in
  record a pass;
  { pass; calib_s = (before +. calibrate e) /. 2.0 }

let setup e a =
  for i = 1 to cold_passes do
    Proc.fresh_dir e.native_cache;
    let dir = out_dir e a.w (Printf.sprintf "cold%d" i) in
    Proc.fresh_dir dir;
    a.cold <- calibrated_pass e a ~out_dir:dir :: a.cold
  done

let floats vs = Jsonx.Arr (List.map (fun v -> Jsonx.Float v) vs)

let summarize e a =
  let warm = List.rev a.warm and cold = List.rev a.cold in
  let n = List.length warm in
  let scaled f c = f c.pass *. reference_calibration_s /. c.calib_s in
  let wall p = p.wall_s and cpu p = p.cpu_s in
  let walls = List.map (scaled wall) warm in
  let p50 = Pstats.median walls in
  let iters =
    List.fold_left (fun s op -> s + W.iterations ~refs:e.refs op) 0 a.ops
  in
  let values =
    [
      Pstats.median (List.map (scaled wall) cold);
      p50;
      Pstats.percentile ~p:90 walls;
      Pstats.median (List.map (scaled cpu) warm);
      Pstats.median (List.map (fun c -> float_of_int c.pass.rss_kb) warm)
      /. 1024.0;
      float_of_int iters /. p50;
    ]
  in
  let samples f cs = floats (List.map f cs) in
  {
    name = a.w.W.name;
    attempted = a.count;
    failures = a.failed;
    metrics = List.map2 (fun (name, unit) v -> (name, unit, v)) end_to_end values;
    notes =
      [
        Printf.sprintf "%d invocations per pass, %d cold and %d warm passes"
          (List.length a.ops) cold_passes n;
        Printf.sprintf "pass_s_p90 has %d samples beyond it%s"
          (Pstats.beyond ~p:90 n)
          (if Pstats.reportable ~p:90 n then ""
           else " (fewer than 10: raise --seconds)");
        Printf.sprintf
          "times scaled to a %.4f s calibration; median calibration %.4f s, \
           unscaled median pass %.6g s"
          reference_calibration_s
          (Pstats.median (List.map (fun c -> c.calib_s) warm))
          (Pstats.median (List.map (fun c -> c.pass.wall_s) warm));
      ];
    extra =
      [
        ( "samples",
          Jsonx.Obj
            [
              ("cold_wall_s", samples (fun c -> c.pass.wall_s) cold);
              ("cold_calibration_s", samples (fun c -> c.calib_s) cold);
              ("wall_s", samples (fun c -> c.pass.wall_s) warm);
              ("cpu_s", samples (fun c -> c.pass.cpu_s) warm);
              ("calibration_s", samples (fun c -> c.calib_s) warm);
            ] );
      ];
  }

let measure e ~seed ~seconds ws =
  let accs = List.map (acc ~seed) ws in
  List.iter (setup e) accs;
  let warm_dir a =
    let dir = out_dir e a.w "warm" in
    Proc.fresh_dir dir;
    dir
  in
  let dirs = List.map warm_dir accs in
  let budget = seconds *. float_of_int (List.length accs) in
  let t0 = Clock.now_ns () in
  while Clock.elapsed_s ~since:t0 < budget do
    List.iter2
      (fun a dir -> a.warm <- calibrated_pass e a ~out_dir:dir :: a.warm)
      accs dirs
  done;
  List.map (summarize e) accs

let trace e ~seed w =
  let a = acc ~seed w in
  let dir = out_dir e w "untraced" in
  Proc.fresh_dir dir;
  let untraced ops () =
    let p = run_pass e ~out_dir:dir ops in
    record a p;
    p.wall_s
  in
  Proc.fresh_dir e.native_cache;
  ignore (untraced a.ops ());
  let startup_s =
    Pstats.median (List.init startup_runs (fun _ -> untraced [ W.Engines ] ()))
  in
  let trace_dir = List.fold_left Filename.concat e.dir [ "trace"; w.W.name ] in
  Proc.fresh_dir trace_dir;
  let ctx =
    {
      Layers.input = e.input;
      out_dir = trace_dir;
      native_dir = e.native_cache;
      scratch = Filename.concat e.dir "tmp";
    }
  in
  let trace_file =
    Filename.concat e.dir (Printf.sprintf "trace-%s.json" w.W.name)
  in
  let metrics, pass_s, replayed, failures =
    Layers.run ctx ~refs:e.refs ~ops:a.ops ~probe_ops:(W.probe ~seed)
      ~untraced:(untraced a.ops) ~startup_s ~trace_file
  in
  {
    name = w.W.name;
    attempted = a.count + replayed;
    failures = a.failed @ failures;
    metrics;
    notes =
      [
        Printf.sprintf "spans of %d traced passes in %s" Layers.traced_passes
          trace_file;
        Printf.sprintf "untraced pass %.4f s, process start %.4f s" pass_s
          startup_s;
      ];
    extra = [];
  }

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let fail_ratio r =
  float_of_int (List.length r.failures) /. float_of_int (max 1 r.attempted)

let print_result r =
  Printf.printf "workload %s\n" r.name;
  List.iter (Printf.printf "  (%s)\n") r.notes;
  List.iter
    (fun (name, unit, v) -> Printf.printf "  %-30s %16.6g %s\n" name v unit)
    r.metrics;
  Printf.printf "  %-30s %16.6g ratio (%d of %d invocations)\n" "fail_ratio"
    (fail_ratio r) (List.length r.failures) r.attempted;
  List.iter (Printf.eprintf "perf: %s: FAILED %s\n" r.name) r.failures

let metric_json (name, unit, v) =
  (name, Jsonx.Obj [ ("value", Jsonx.Float v); ("unit", Jsonx.Str unit) ])

let write_bench ~seed ~seconds ~traced results =
  let workload r =
    ( r.name,
      Jsonx.Obj
        ([
           ("attempted", Jsonx.Int r.attempted);
           ("failed", Jsonx.Int (List.length r.failures));
           ("fail_ratio", Jsonx.Float (fail_ratio r));
           ("metrics", Jsonx.Obj (List.map metric_json r.metrics));
           ("failures", Jsonx.Arr (List.map (fun f -> Jsonx.Str f) r.failures));
         ]
        @ r.extra) )
  in
  Proc.write_file "BENCH_perf.json"
    (Jsonx.pretty
       (Jsonx.Obj
          [
            ("seed", Jsonx.Int seed);
            ("seconds", Jsonx.Float seconds);
            ("trace", Jsonx.Bool traced);
            ("workloads", Jsonx.Obj (List.map workload results));
          ]))

(* The last line of standard output. With several workloads each metric
   name is prefixed by its workload's. *)
let summary_line results =
  let prefix r = if List.length results > 1 then r.name ^ "." else "" in
  let metrics =
    List.concat_map
      (fun r ->
        List.map
          (fun (name, unit, v) -> metric_json (prefix r ^ name, unit, v))
          r.metrics)
      results
  in
  let sum f = List.fold_left (fun n r -> n + f r) 0 results in
  let failed = sum (fun r -> List.length r.failures) in
  Jsonx.to_string
    (Jsonx.Obj
       [
         ("correct", Jsonx.Bool (failed = 0));
         ("attempted", Jsonx.Int (sum (fun r -> r.attempted)));
         ("failed", Jsonx.Int failed);
         ("metrics", Jsonx.Obj metrics);
       ])

(* ------------------------------------------------------------------ *)
(* --compare and --regen-ref                                           *)
(* ------------------------------------------------------------------ *)

let compare_files a b =
  let parse path =
    match Proc.read_file path with
    | None -> die "cannot read %s" path
    | Some s -> (
      match Jsonx.parse s with Ok j -> j | Error m -> die "%s: %s" path m)
  in
  let field name j = Jsonx.member name j in
  let spec m =
    ( Jsonx.to_str "name" (field "name" m),
      Pstats.better_of_string (Jsonx.to_str "better" (field "better" m)),
      Jsonx.to_float "bound" (field "bound" m) )
  in
  let workloads path =
    match field "workloads" (parse path) with
    | Jsonx.Obj ws -> ws
    | _ -> die "%s: no workloads" path
  in
  let value w name =
    Jsonx.to_float name (field "value" (field name (field "metrics" w)))
  in
  let outside = ref 0 in
  let row name wa wb (metric, better, bound) =
    let base = value wa metric and cur = value wb metric in
    let v = Pstats.verdict ~better ~bound ~base ~cur in
    if v <> Pstats.Within then incr outside;
    Printf.printf "%-12s %-12s %14.6g %14.6g %+8.1f%% %5.0f%%  %s\n" name
      metric base cur
      (100.0 *. (cur -. base) /. base)
      (100.0 *. bound) (Pstats.verdict_name v)
  in
  (try
     let specs =
       List.map spec
         (Jsonx.to_list "end_to_end"
            (field "end_to_end" (parse "BENCHMARK.json")))
     in
     let wb = workloads b in
     Printf.printf "%-12s %-12s %14s %14s %9s %6s  %s\n" "workload" "metric"
       "A" "B" "change" "bound" "verdict";
     List.iter
       (fun (name, wa) ->
         match List.assoc_opt name wb with
         | None -> die "workload %s is in %s but not in %s" name a b
         | Some wb -> List.iter (row name wa wb) specs)
       (workloads a)
   with Jsonx.Error m -> die "%s" m);
  Printf.printf "%d metric(s) outside the bound\n" !outside;
  exit (if !outside = 0 then 0 else 1)

(* References come from the tree-walking interpreter with propagation
   off: the independent path, never an engine under test. *)
let regen_ref e =
  Proc.mkdir_p ref_dir;
  let log = Filename.concat e.dir "regen" in
  List.iter
    (fun space ->
      let key = W.space_key space in
      let out =
        List.fold_left Filename.concat (Sys.getcwd ()) [ ref_dir; key ^ ".json" ]
      in
      let sweep =
        W.Sweep
          {
            space;
            engine = Some "interp";
            shard = None;
            stats_out = Some out;
            explain_out = None;
          }
      in
      let argv =
        Array.of_list
          ((e.beast_path :: W.argv ~input:e.input ~out:Fun.id sweep)
          @ [ "--propagate"; "off" ])
      in
      let stdout = log ^ ".stdout" and stderr = log ^ ".stderr" in
      let r = Proc.run e.spawner ~timeout_s:3600.0 ~stdout ~stderr argv in
      if r.Proc.code <> 0 then
        die "reference sweep of %s failed (exit %d): %s" key r.Proc.code
          (first_line (Option.value (Proc.read_file stderr) ~default:""));
      Printf.printf "wrote %s\n%!" out)
    (List.sort_uniq compare (List.filter_map W.ref_space (all_ops ~seed:0)))

(* ------------------------------------------------------------------ *)

let () =
  let workload = ref None and seed = ref 1 and seconds = ref 20.0 in
  let trace_flag = ref 0 and compare = ref false and regen = ref false in
  let files = ref [] in
  let spec =
    [
      ( "--workload",
        Arg.String (fun s -> workload := Some s),
        "NAME run one workload (default: all)" );
      ("--seed", Arg.Set_int seed, "N seed of the generated inputs (default 1)");
      ( "--seconds",
        Arg.Set_float seconds,
        "S warm-pass time per workload (default 20)" );
      ("--trace", Arg.Set_int trace_flag, "0|1 1: the traced run");
      ( "--compare",
        Arg.Set compare,
        " compare two BENCH_perf.json files: --compare A.json B.json" );
      ("--regen-ref", Arg.Set regen, " rewrite the reference stats in " ^ ref_dir);
    ]
  in
  let usage =
    "perf.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]"
  in
  (try Arg.parse_argv Sys.argv spec (fun f -> files := !files @ [ f ]) usage
   with
  | Arg.Help msg ->
    print_string msg;
    exit 0
  | Arg.Bad msg ->
    prerr_string msg;
    exit 2);
  match (!compare, !files) with
  | true, [ a; b ] -> compare_files a b
  | true, _ -> die "--compare takes two files"
  | false, f :: _ -> die "unexpected argument %s" f
  | false, [] when !regen -> regen_ref (make_env ~load_refs:false)
  | false, [] ->
    let ws =
      match !workload with
      | None -> W.all
      | Some name -> (
        match W.find name with
        | Some w -> [ w ]
        | None ->
          die "unknown workload %s (one of: %s)" name
            (String.concat ", " (List.map (fun w -> w.W.name) W.all)))
    in
    if !trace_flag <> 0 && !trace_flag <> 1 then die "--trace takes 0 or 1";
    if !seconds <= 0.0 then die "--seconds must be positive";
    let e = make_env ~load_refs:true in
    let traced = !trace_flag = 1 in
    let results =
      if traced then List.map (trace e ~seed:!seed) ws
      else measure e ~seed:!seed ~seconds:!seconds ws
    in
    List.iter print_result results;
    write_bench ~seed:!seed ~seconds:!seconds ~traced results;
    print_endline (summary_line results);
    exit (if List.for_all (fun r -> r.failures = []) results then 0 else 1)
