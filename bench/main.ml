(* Benchmark harness regenerating every table and figure of the paper's
   evaluation (Section XI). Absolute rates depend on this machine; the
   claims under test are the *shapes*: variant orderings within each
   figure, the orders-of-magnitude gaps between language tiers, the
   >100x interpreted-to-compiled sweep speedup, and Table I's improvement
   factors. Paper-vs-measured is recorded in EXPERIMENTS.md.

   The ablations also check facts that must hold on any machine (engines
   agree, resumed stats are byte-identical, provenance is exact, ...).
   Each is printed as it is checked, and the run exits 1 naming every
   false one; the exact counts behind them are pinned by the test suites.

   Run with: dune exec bench/main.exe            (full, a few minutes)
             BEAST_BENCH_FAST=1 dune exec bench/main.exe   (reduced)
             BEAST_BENCH_QUICK=1 dune exec bench/main.exe  (CI smoke) *)

open Bechamel
open Toolkit
open Beast_core
open Beast_gpu
open Beast_kernels
open Beast_lang
open Beast_autotune
open Beast_obs

(* BEAST_BENCH_QUICK=1: the CI smoke configuration — reduced scales AND
   only the cheap sections, so the job finishes in seconds. *)
let quick = Sys.getenv_opt "BEAST_BENCH_QUICK" <> None
let fast = quick || Sys.getenv_opt "BEAST_BENCH_FAST" <> None
let scale n = if fast then n / 10 else n

let line () = print_endline (String.make 72 '-')

let header title =
  line ();
  Printf.printf "%s\n" title;
  line ()

(* The facts checked so far that came out false, newest first. *)
let false_facts = ref []

(* Print a fact the harness checks; a false one fails the run at exit. *)
let require name ok =
  Printf.printf "%s: %b\n" name ok;
  if not ok then false_facts := name :: !false_facts

(* ------------------------------------------------------------------ *)
(* Bechamel helper: nanoseconds per run of a thunk.                    *)
(* ------------------------------------------------------------------ *)

let ns_per_run ?(quota = 0.5) name fn =
  let test = Test.make ~name (Staged.stage fn) in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second quota) ~kde:None
      ~stabilize:false ()
  in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] test in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun _ v acc ->
      match Analyze.OLS.estimates v with
      | Some (e :: _) -> e
      | _ -> acc)
    results nan

let time_once fn =
  let t0 = Clock.now_s () in
  let r = fn () in
  (r, Clock.now_s () -. t0)

(* ------------------------------------------------------------------ *)
(* Figures 17/18/19: loop-nest rates per language tier.                *)
(* ------------------------------------------------------------------ *)

let figure_loopnest ~title ~total ~variants ~run =
  header title;
  Printf.printf "%-14s" "variant";
  for d = 1 to 4 do
    Printf.printf "%14s" (Printf.sprintf "depth %d" d)
  done;
  Printf.printf "%s\n" "   (iterations/second)";
  List.iter
    (fun (vname, v) ->
      Printf.printf "%-14s" vname;
      for depth = 1 to 4 do
        let nest = Loopnest.make ~depth ~total in
        let iters = float_of_int (Loopnest.iterations nest) in
        let ns = ns_per_run (Printf.sprintf "%s-d%d" vname depth)
                   (fun () -> ignore (run v nest)) in
        let rate = iters /. (ns *. 1e-9) in
        Printf.printf "%14s" (Printf.sprintf "%.3g" rate)
      done;
      print_newline ())
    variants

let fig17 () =
  figure_loopnest
    ~title:
      "Figure 17: scripting-tier (Python-like AST walker), boxed values,\n\
       hashtable scopes. Paper: xrange > range > while (~30% gap)."
    ~total:(scale 300_000)
    ~variants:
      (List.map
         (fun v -> (Interp_python.variant_name v, v))
         Interp_python.all_variants)
    ~run:Interp_python.run

let fig18 () =
  figure_loopnest
    ~title:
      "Figure 18: VM tier (Lua-like register bytecode). Paper ordering:\n\
       for > repeat-until > while; ~5x over the Python tier."
    ~total:(scale 3_000_000)
    ~variants:
      (List.map (fun v -> (Interp_lua.variant_name v, v)) Interp_lua.all_variants)
    ~run:Interp_lua.run

let fig19 () =
  figure_loopnest
    ~title:
      "Figure 19: compiled tier (native loops; C / Java / Fortran\n\
       flavours). Paper: Fortran fastest by a hair, Java slowest."
    ~total:(scale 30_000_000)
    ~variants:
      (List.map (fun v -> (Native.flavour_name v, v)) Native.all_flavours)
    ~run:Native.run

(* ------------------------------------------------------------------ *)
(* Section XI-B/D: the GEMM space sweep across engines + generated C.  *)
(* ------------------------------------------------------------------ *)

let in_temp_dir files =
  let dir = Filename.temp_file "beast_bench" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  List.iter
    (fun (name, contents) ->
      let oc = open_out (Filename.concat dir name) in
      output_string oc contents;
      close_out oc)
    files;
  dir

let time_command cmd =
  let t0 = Clock.now_s () in
  let rc = Sys.command cmd in
  let dt = Clock.now_s () -. t0 in
  if rc = 0 then Some dt else None

let runtime_available cmd =
  Sys.command (Printf.sprintf "command -v %s > /dev/null 2>&1" cmd) = 0

(* Generate, build and time every language backend we have a runtime
   for - the paper's actual experiment: the same declarative space
   translated and executed per backend. *)
let time_generated_c plan =
  match Codegen_c.generate plan with
  | Error _ -> None
  | Ok source ->
    let dir = in_temp_dir [ ("sweep.c", source) ] in
    let exe = Filename.concat dir "sweep" in
    if
      Sys.command
        (Printf.sprintf "cc -O2 -std=c99 -o %s %s 2>/dev/null"
           (Filename.quote exe)
           (Filename.quote (Filename.concat dir "sweep.c")))
      <> 0
    then None
    else time_command (Filename.quote exe ^ " > /dev/null")

let time_generated_python plan =
  if not (runtime_available "python3") then None
  else
    match Codegen.generate Codegen.Python plan with
    | Error _ -> None
    | Ok source ->
      let dir = in_temp_dir [ ("sweep.py", source) ] in
      time_command
        (Printf.sprintf "python3 %s > /dev/null"
           (Filename.quote (Filename.concat dir "sweep.py")))

let time_generated_java plan =
  if not (runtime_available "javac" && runtime_available "java") then None
  else
    match Codegen.generate Codegen.Java plan with
    | Error _ -> None
    | Ok source ->
      let dir = in_temp_dir [ ("BeastSweep.java", source) ] in
      if
        Sys.command
          (Printf.sprintf "javac -d %s %s 2>/dev/null" (Filename.quote dir)
             (Filename.quote (Filename.concat dir "BeastSweep.java")))
        <> 0
      then None
      else
        time_command
          (Printf.sprintf "java -cp %s BeastSweep > /dev/null"
             (Filename.quote dir))

let sweep_speedup () =
  header
    "Section XI-B/D: GEMM space sweep across language backends.\n\
     Paper: Python 66948 s vs generated C 264 s (253x) on the full K40c\n\
     space; here the space is device-scaled so every tier finishes, and\n\
     the generated Python/Java programs really run under CPython/HotSpot.";
  let max_dim = if fast then 32 else 64 in
  let max_threads = if fast then 128 else 256 in
  let device = Device.scale ~max_dim ~max_threads Device.tesla_k40c in
  let settings = { Gemm.default_settings with Gemm.device } in
  let sp = Gemm.space ~settings () in
  let plan = Plan.make_exn sp in
  (* Reference sweep for iteration count (and to warm the page cache). *)
  let stats, staged_dt = time_once (fun () -> Engine_staged.run plan) in
  let iters = float_of_int stats.Engine.loop_iterations in
  let rows : (string * float) list ref = ref [] in
  let record name dt =
    rows := (name, dt) :: !rows;
    Printf.printf "%-34s %10.3f s  %12.3g loop-iterations/s\n" name dt
      (iters /. dt)
  in
  (* In-process tiers. *)
  let vm_prog = Engine_vm.compile plan in
  let _, dt = time_once (fun () -> Engine_vm.run vm_prog) in
  record "in-process bytecode VM (Lua tier)" dt;
  record "in-process staged closures" staged_dt;
  (* Generated programs under real runtimes. *)
  (match time_generated_python plan with
  | Some dt -> record "generated Python under CPython" dt
  | None -> print_endline "generated Python: no python3 available");
  (match time_generated_java plan with
  | Some dt -> record "generated Java under the JVM" dt
  | None -> print_endline "generated Java: no JDK available");
  (match time_generated_c plan with
  | Some dt -> record "generated C (cc -O2)" dt
  | None -> print_endline "generated C: no C compiler available");
  (* The paper's ratio: interpreted Python over generated C. *)
  (match
     ( List.assoc_opt "generated Python under CPython" !rows,
       List.assoc_opt "generated C (cc -O2)" !rows )
   with
  | Some py, Some c ->
    Printf.printf
      "generated Python / generated C: %.0fx (paper, CPython 2.7 vs gcc: 253x)\n"
      (py /. c)
  | _ -> ());
  (* The interpreted engine on a smaller cut, for the in-process view
     (it is the scripting-cost tier; the full space would take minutes). *)
  let small_device = Device.scale ~max_dim:24 ~max_threads:96 Device.tesla_k40c in
  let small = Gemm.space ~settings:{ settings with Gemm.device = small_device } () in
  let small_plan = Plan.make_exn small in
  let s_interp, t_interp =
    time_once (fun () -> Engine_interp.run ~variant:`Hoisted small)
  in
  let _, t_staged = time_once (fun () -> Engine_staged.run small_plan) in
  Printf.printf
    "in-process AST-walking interpreter vs staged (24-dim cut): %.0fx on %d iterations\n"
    (t_interp /. t_staged) s_interp.Engine.loop_iterations;
  Printf.printf "survivors %d; cross-engine agreement is enforced by the test suite\n"
    stats.Engine.survivors

(* ------------------------------------------------------------------ *)
(* Table I: improvement factors from the autotuner.                    *)
(* ------------------------------------------------------------------ *)

let table1 () =
  header
    "Table I: performance levels achieved with the BEAST autotuner\n\
     (device model standing in for the K40c; see DESIGN.md).";
  (* Row 1: GEMM, % of peak. *)
  let device = Device.scale ~max_dim:(if fast then 32 else 64)
                 ~max_threads:256 Device.tesla_k40c in
  let settings = { Gemm.default_settings with Gemm.device } in
  let r, dt =
    time_once (fun () ->
        Tuner.tune ~objective:(Gemm.objective settings) (Gemm.space ~settings ()))
  in
  let peak = Device.peak_gflops device Device.Double in
  (match r.Tuner.best with
  | Some best ->
    Printf.printf
      "GEMM (dgemm-nn)             %5.1f%% of peak   (paper: 80%% of peak)  [%.1fs, %d survivors]\n"
      (100.0 *. best.Tuner.score /. peak)
      dt r.Tuner.evaluated
  | None -> print_endline "GEMM: no survivors");
  (* Row 2: batched factorizations, small sizes. *)
  let small_ratios =
    List.map
      (fun n ->
        let w =
          { Cholesky_batched.default_workload with Cholesky_batched.n;
            batch = 10_000 }
        in
        let r =
          Tuner.tune ~objective:(Cholesky_batched.objective w)
            (Cholesky_batched.space ~workload:w ())
        in
        Option.value ~default:0.0
          (Tuner.improvement r ~baseline:(Cholesky_batched.baseline_gflops w)))
      [ 8; 16; 24; 32 ]
  in
  Printf.printf
    "Batched Cholesky (small)    up to %3.0f%%       (paper: up to 1000%%)   [n=8..32]\n"
    (100.0 *. List.fold_left Float.max 0.0 small_ratios);
  (* Row 3: medium sizes. *)
  let medium_ratios =
    List.map
      (fun n ->
        let w =
          { Cholesky_batched.default_workload with Cholesky_batched.n;
            batch = 2_000 }
        in
        let r =
          Tuner.tune ~objective:(Cholesky_batched.objective w)
            (Cholesky_batched.space ~workload:w ())
        in
        Option.value ~default:0.0
          (Tuner.improvement r ~baseline:(Cholesky_batched.baseline_gflops w)))
      [ 128; 192; 256 ]
  in
  Printf.printf
    "Batched Cholesky (medium)   up to %3.0f%%       (paper: up to 300%%)    [n=128..256]\n"
    (100.0 *. List.fold_left Float.max 0.0 medium_ratios);
  (* Companion: batched TRSM. *)
  let trsm_ratio n batch =
    let w = { Trsm_batched.default_workload with Trsm_batched.n; batch } in
    let r =
      Tuner.tune ~objective:(Trsm_batched.objective w)
        (Trsm_batched.space ~workload:w ())
    in
    Option.value ~default:0.0
      (Tuner.improvement r ~baseline:(Trsm_batched.baseline_gflops w))
  in
  Printf.printf
    "Batched TRSM                %.1fx small / %.1fx medium (ref [5] companion kernel)\n"
    (trsm_ratio 16 10_000) (trsm_ratio 128 2_000);
  (* LU joins the batched-factorization family (refs [34]-[36]). *)
  let lu_ratio n batch =
    let w = { Lu_batched.default_workload with Lu_batched.n; batch } in
    let r =
      Tuner.tune ~objective:(Lu_batched.objective w)
        (Lu_batched.space ~workload:w ())
    in
    Option.value ~default:0.0
      (Tuner.improvement r ~baseline:(Lu_batched.baseline_gflops w))
  in
  Printf.printf
    "Batched LU                  %.1fx small / %.1fx medium (refs [34]-[36])\n"
    (lu_ratio 16 10_000) (lu_ratio 128 2_000);
  (* ALS vs a CPU baseline (ref [6]). *)
  let w = Als.default_workload in
  let r = Tuner.tune ~objective:(Als.objective w) (Als.space ~workload:w ()) in
  (match Tuner.improvement r ~baseline:(Als.cpu_baseline_gflops w) with
  | Some ratio ->
    Printf.printf
      "ALS (rank %d) vs CPU        %.1fx             (ref [6]: 'significant speedups')\n"
      w.Als.rank ratio
  | None -> ())

(* ------------------------------------------------------------------ *)
(* Section VI: pruning funnel ("sometimes by as much as 99%").         *)
(* ------------------------------------------------------------------ *)

let funnel () =
  header
    "Section VI: constraint pruning funnel on the GEMM space\n\
     (paper: constraints prune 'sometimes by as much as 99%').\n\
     Measured on the divisor-iterator variant so the exact per-prefix\n\
     sweeps stay tractable (the reshape constraints are absorbed into\n\
     the read-grid iterators; the ten explicit constraints remain).";
  let max_dim = if fast then 14 else 16 in
  let device = Device.scale ~max_dim ~max_threads:64 Device.tesla_k40c in
  let settings = { Gemm.default_settings with Gemm.device } in
  let f = Stats.funnel (Gemm.space_divisor_opt ~settings ()) in
  Format.printf "%a" Stats.pp f;
  Printf.printf "pruned fraction: %.4f%%\n" (100.0 *. Stats.pruned_fraction f);
  (* And the single-sweep funnel of the plain space at a larger scale:
     firing counts only, with the unconstrained size counted exactly by
     the feasible-set diagram instead of enumerated. *)
  let device = Device.scale ~max_dim:16 ~max_threads:64 Device.tesla_k40c in
  let settings = { Gemm.default_settings with Gemm.device } in
  let sp = Gemm.space ~settings () in
  let stats = Engine_staged.run_space sp in
  let unconstrained =
    Plan.make_exn (Space.filter_constraints sp ~keep:(fun _ -> false))
  in
  let total =
    match Feasible.build unconstrained with
    | Ok f -> string_of_int (Feasible.count f)
    | Error msg -> Printf.sprintf "? (feasible set refused: %s)" msg
  in
  Printf.printf
    "plain space at 16-dim scale: %d survivors of %s raw points; top firing constraints:\n"
    stats.Engine.survivors total;
  Array.to_list stats.Engine.pruned
  |> List.sort (fun (_, _, a) (_, _, b) -> compare b a)
  |> List.filteri (fun i _ -> i < 3)
  |> List.iter (fun (n, _, k) -> Printf.printf "  %-24s fired %d\n" n k)

(* ------------------------------------------------------------------ *)
(* Figure 16: the dependency DAG's level sets.                         *)
(* ------------------------------------------------------------------ *)

let fig16 () =
  header
    "Figure 16: dependency DAG of the GEMM space (level sets shown here;\n\
     `beast dot gemm | dot -Tsvg` renders the graph itself).";
  let sp = Gemm.space () in
  match Space.dag sp with
  | Error e -> Format.printf "error: %a@." Space.pp_error e
  | Ok dag ->
    List.iteri
      (fun i set ->
        Printf.printf "L%d: %s\n" i (String.concat " " set))
      (Dag.level_sets dag)

(* ------------------------------------------------------------------ *)
(* Ablations (DESIGN.md section 4).                                    *)
(* ------------------------------------------------------------------ *)

let ablation_hoisting () =
  header
    "Ablation: DAG hoisting of derived variables and constraints\n\
     (Section X's placement vs everything at the innermost level).";
  let max_dim = if fast then 6 else 8 in
  let device = Device.scale ~max_dim ~max_threads:32 Device.tesla_k40c in
  let settings = { Gemm.default_settings with Gemm.device } in
  let sp = Gemm.space ~settings () in
  let hoisted = Plan.make_exn ~hoist:true sp in
  let flat = Plan.make_exn ~hoist:false sp in
  let s1, t1 = time_once (fun () -> Engine_staged.run hoisted) in
  let s2, t2 = time_once (fun () -> Engine_staged.run flat) in
  Printf.printf "hoisted:     %10d loop iterations, %8.3f s\n"
    s1.Engine.loop_iterations t1;
  Printf.printf "no hoisting: %10d loop iterations, %8.3f s\n"
    s2.Engine.loop_iterations t2;
  Printf.printf "iteration inflation without hoisting: %.1fx; slowdown %.1fx\n"
    (float_of_int s2.Engine.loop_iterations /. float_of_int s1.Engine.loop_iterations)
    (t2 /. t1);
  require "hoisting: survivors agree"
    (s1.Engine.survivors = s2.Engine.survivors)

let ablation_loop_order () =
  header
    "Ablation: loop interchange within DAG level sets (Section X-B).\n\
     Moving the four binary variant dimensions outward delays every\n\
     constraint by a factor 16 of subtree width.";
  let device = Device.scale ~max_dim:24 ~max_threads:96 Device.tesla_k40c in
  let settings = { Gemm.default_settings with Gemm.device } in
  let sp = Gemm.space ~settings () in
  let default_plan = Plan.make_exn sp in
  let bad_order =
    [ "tex_a"; "tex_b"; "shmem_l1"; "shmem_banks" ]
    @ List.filter
        (fun n -> not (List.mem n [ "tex_a"; "tex_b"; "shmem_l1"; "shmem_banks" ]))
        default_plan.Plan.iter_order
  in
  let bad_plan = Plan.make_exn ~order:bad_order sp in
  let s1, t1 = time_once (fun () -> Engine_staged.run default_plan) in
  let s2, t2 = time_once (fun () -> Engine_staged.run bad_plan) in
  Printf.printf "dependency order:     %10d iterations, %8.3f s\n"
    s1.Engine.loop_iterations t1;
  Printf.printf "variants outermost:   %10d iterations, %8.3f s\n"
    s2.Engine.loop_iterations t2;
  Printf.printf "penalty: %.1fx iterations, %.1fx time\n"
    (float_of_int s2.Engine.loop_iterations /. float_of_int s1.Engine.loop_iterations)
    (t2 /. t1);
  require "loop order: survivors agree"
    (s1.Engine.survivors = s2.Engine.survivors)

let ablation_divisor_iterator () =
  header
    "Ablation: closure iterators carrying search knowledge. The plain\n\
     space scans the full read-grid cross products and lets\n\
     cant_reshape_a1/b1 reject non-factorizations point by point (the\n\
     paper's most-fired constraints); a divisor-pair closure iterator\n\
     skips them - same survivors, ~4x fewer loop iterations. Whether\n\
     that wins wall-clock depends on the tier: the AST-walking\n\
     interpreter pays per iteration and gains; the staged engine's\n\
     iterations are so cheap that dynamic materialization costs more\n\
     than the scans it avoids - the same economics that justify the\n\
     paper's code generator.";
  let device = Device.scale ~max_dim:(if fast then 24 else 48)
                 ~max_threads:192 Device.tesla_k40c in
  let settings = { Gemm.default_settings with Gemm.device } in
  let plain = Gemm.space ~settings () in
  let opt = Gemm.space_divisor_opt ~settings () in
  let s1, staged_plain = time_once (fun () -> Engine_staged.run_space plain) in
  let s2, staged_opt = time_once (fun () -> Engine_staged.run_space opt) in
  let _, interp_plain = time_once (fun () -> Engine_interp.run plain) in
  let _, interp_opt = time_once (fun () -> Engine_interp.run opt) in
  Printf.printf "%-28s %14s %14s\n" "" "grid scans" "divisor iter";
  Printf.printf "%-28s %14d %14d\n" "loop iterations"
    s1.Engine.loop_iterations s2.Engine.loop_iterations;
  Printf.printf "%-28s %13.3fs %13.3fs\n" "staged engine" staged_plain
    staged_opt;
  Printf.printf "%-28s %13.3fs %13.3fs\n" "AST-walking interpreter" interp_plain
    interp_opt;
  Printf.printf
    "%d survivors; interpreter speedup %.1fx, staged slowdown %.1fx\n"
    s1.Engine.survivors (interp_plain /. interp_opt)
    (staged_opt /. staged_plain);
  require "divisor iterator: survivors agree"
    (s1.Engine.survivors = s2.Engine.survivors)

let ablation_parallel () =
  header
    "Ablation: multithreaded sweep (outermost level-set decomposition).\n\
     This validates the decomposition; bench/perf's\n\
     parallel.efficiency measures the scaling.";
  let device = Device.scale ~max_dim:20 ~max_threads:96 Device.tesla_k40c in
  let settings = { Gemm.default_settings with Gemm.device } in
  let plan = Plan.make_exn (Gemm.space ~settings ()) in
  (* Engines are selected the way the CLI does it: by registry spec. *)
  List.iter
    (fun spec ->
      match Engine_registry.find spec with
      | Error msg -> Printf.printf "%s: %s\n" spec msg
      | Ok (_, (module E : Engine_intf.S)) ->
        let s, t = time_once (fun () -> E.run (Engine_intf.Plan plan)) in
        Printf.printf "%-12s %8.3f s, survivors %d\n" E.name t
          s.Engine.survivors)
    [ "parallel:1"; "parallel:2"; "parallel:4" ]

let ablation_checkpoint () =
  header
    "Ablation: checkpointing overhead and resume equivalence. The\n\
     work-stealing scheduler keeps a chunk ledger; the pathological\n\
     configuration below flushes it to disk after every chunk (a real\n\
     deployment writes every few seconds, amortizing to ~zero).";
  let max_dim = if fast then 20 else 32 in
  let max_threads = if fast then 96 else 128 in
  let device = Device.scale ~max_dim ~max_threads Device.tesla_k40c in
  let settings = { Gemm.default_settings with Gemm.device } in
  let plan = Plan.make_exn (Gemm.space ~settings ()) in
  let domains = 4 in
  let finished = function
    | Engine_intf.Finished stats -> stats
    | Engine_intf.Interrupted _ -> failwith "bench: unexpected interruption"
  in
  ignore (Engine_parallel.run ~domains plan) (* warm up domain spawning *);
  let s_ledger, t_ledger =
    time_once (fun () ->
        finished (Engine_parallel.run_resumable ~domains plan))
  in
  let ck_path = Filename.temp_file "beast_bench_ck" ".json" in
  let sink =
    {
      Engine_intf.ck_path;
      ck_every_s = 0.0 (* flush after every chunk: worst case *);
      ck_run_id = None;
      ck_shard = Stats_io.unsharded;
    }
  in
  let s_ck, t_ck =
    time_once (fun () ->
        finished
          (Engine_parallel.run_resumable ~checkpoint:sink ~domains plan))
  in
  Printf.printf "resumable, no checkpoint:     %8.3f s\n" t_ledger;
  Printf.printf "checkpoint after every chunk: %8.3f s  (+%.1f%%)\n" t_ck
    (100.0 *. ((t_ck /. t_ledger) -. 1.0));
  require "checkpoint: stats agree" (s_ledger = s_ck);
  (* Resume equivalence: interrupt partway, resume from the flushed
     ledger, compare the stats files byte for byte. *)
  let hits = ref 0 in
  let target = s_ledger.Engine.survivors / 2 in
  let on_hit _ =
    incr hits;
    if !hits = target then Engine_parallel.interrupt ()
  in
  (match
     Engine_parallel.run_resumable ~on_hit ~checkpoint:sink ~domains plan
   with
  | Engine_intf.Interrupted { completed; total } ->
    let resumed =
      match Checkpoint.of_file ck_path with
      | Error msg -> failwith ("bench: checkpoint unreadable: " ^ msg)
      | Ok ck ->
        finished (Engine_parallel.run_resumable ~resume:ck ~domains plan)
    in
    let json stats = Stats_io.to_json (Stats_io.of_stats ~plan stats) in
    Printf.printf "interrupted at %d/%d chunks\n" completed total;
    require "resumed stats byte-identical" (json resumed = json s_ledger)
  | Engine_intf.Finished _ ->
    print_endline "interrupt landed after the sweep finished; nothing to resume");
  Sys.remove ck_path

(* Static round-robin split vs chunked work stealing on a skewed space.
   The skew is the natural one: a hoisted divisibility constraint on the
   outermost iterator (dim_m mod 4 = 0 — exactly the shape of a
   blocking-factor constraint) prunes three quarters of the outer
   subtrees instantly, and every surviving position lands in the same
   round-robin residue class, so the static split gives one domain all
   the work. Work stealing hands out many contiguous chunks from a
   shared cursor, so no domain holds more than one chunk of the skew.
   Wall-clock gains need real cores (this container may expose one);
   the per-slice iteration shares are machine-independent evidence. *)
let ablation_stealing () =
  (* The pre-chunking scheduler, kept here as the baseline: one static
     round-robin slice per domain, no stealing. Slice k holds the outer
     positions k, k + domains, ...: with one Plan.chunk_outer block per
     position ([positions] is the outer trip count), the blocks k,
     k + domains, ..., recombined by Engine.merge_blocks. *)
  let static_slice ~domains ~positions plan k =
    List.filter_map
      (fun p ->
        if p mod domains = k then
          Some (Engine_staged.run (Plan.chunk_outer plan ~index:p ~of_:positions))
        else None)
      (List.init positions Fun.id)
  in
  let run_static ~domains ~positions plan =
    let stats =
      List.init domains (fun k ->
          Domain.spawn (fun () -> static_slice ~domains ~positions plan k))
      |> List.concat_map Domain.join
    in
    Engine.merge_blocks ~depth0:(Plan.depth0_constraints plan) stats
  in
  header
    "Ablation: static split vs chunked work stealing on a skewed GEMM\n\
     space (dim_m divisibility constraint; survivors cluster in one\n\
     round-robin residue class).";
  let max_dim = if fast then 20 else 32 in
  let max_threads = if fast then 96 else 128 in
  let device = Device.scale ~max_dim ~max_threads Device.tesla_k40c in
  let settings = { Gemm.default_settings with Gemm.device } in
  let sp = Gemm.space ~settings () in
  let open Expr.Infix in
  Space.constrain sp ~cls:Space.Hard "skew_blocking"
    (Expr.var "dim_m" %: Expr.int 4 <>: Expr.int 0);
  let plan = Plan.make_exn sp in
  let domains = 4 in
  (* dim_m, the outermost loop, is range(1, max_dim + 1). *)
  let positions = max_dim in
  let seq = Engine_staged.run plan in
  (* Machine-independent skew: each static slice's share of the loop
     iterations vs the largest single chunk of the stealing split. *)
  let total = float_of_int seq.Engine.loop_iterations in
  let share iters = 100.0 *. float_of_int iters /. total in
  let slice_shares =
    List.init domains (fun k ->
        share
          (List.fold_left
             (fun n s -> n + s.Engine.loop_iterations)
             0
             (static_slice ~domains ~positions plan k)))
  in
  let n_chunks = domains * Engine_parallel.default_chunks_per_domain in
  let max_chunk_share =
    List.fold_left Float.max 0.0
      (List.init n_chunks (fun index ->
           share
             (Engine_staged.run (Plan.chunk_outer plan ~index ~of_:n_chunks))
               .Engine.loop_iterations))
  in
  ignore (Engine_parallel.run ~domains plan) (* warm up domain spawning *);
  let s_static, t_static =
    time_once (fun () -> run_static ~domains ~positions plan)
  in
  let s_steal, t_steal = time_once (fun () -> Engine_parallel.run ~domains plan) in
  Printf.printf "survivors %d, loop iterations %d, %d domains\n"
    seq.Engine.survivors seq.Engine.loop_iterations domains;
  Printf.printf "static slice shares of the work: %s\n"
    (String.concat " "
       (List.map (fun s -> Printf.sprintf "%.2f%%" s) slice_shares));
  Printf.printf "largest stolen chunk (%d chunks): %.2f%% of the work\n"
    n_chunks max_chunk_share;
  Printf.printf "static split:  %8.3f s\n" t_static;
  Printf.printf "work stealing: %8.3f s  (%.2fx)\n" t_steal
    (t_static /. t_steal);
  require "stats match the sequential sweep" (s_static = seq && s_steal = seq)

(* The full engine ladder of the paper's Figures 17-19: interpreted
   enumeration, bytecode, staged closures, multicore, and finally the
   generated C compiled and run as a subprocess — the headline
   scripting-to-compiled trajectory (264 s vs 66 948 s in the paper,
   ~253x). Native's time includes fork+exec and stats parsing; its
   first run (reported separately) also includes the C compile, which
   the binary cache amortizes away for every later sweep of the same
   space. *)
let ablation_native () =
  header
    "Ablation: the engine ladder on GEMM (Figures 17-19 trajectory).\n\
     interp -> vm -> staged -> parallel -> native (generated C, compiled,\n\
     run as a subprocess).";
  let max_dim = 32 and max_threads = 128 in
  let device = Device.scale ~max_dim ~max_threads Device.tesla_k40c in
  let settings = { Gemm.default_settings with Gemm.device } in
  let sp = Gemm.space ~settings () in
  let specs = [ "interp"; "vm"; "staged"; "parallel:4"; "native" ] in
  let native_cold = ref 0.0 in
  let results =
    List.map
      (fun spec ->
        match Engine_registry.find spec with
        | Error msg -> failwith ("bench: " ^ spec ^ ": " ^ msg)
        | Ok (_, (module E : Engine_intf.S)) ->
          (* Warm-up run: native pays its one-time C compile here (kept
             as the cold figure), parallel its domain spawn; then time
             the steady state every later sweep sees. *)
          let _, t_cold =
            time_once (fun () -> E.run (Engine_intf.Space sp))
          in
          if spec = "native" then native_cold := t_cold;
          let stats, t =
            time_once (fun () -> E.run (Engine_intf.Space sp))
          in
          Printf.printf "%-12s %8.3f s, survivors %d\n" spec t
            stats.Engine.survivors;
          (spec, stats, t))
      specs
  in
  let _, ref_stats, _ = List.hd results in
  Printf.printf "survivors %d, loop iterations %d\n" ref_stats.Engine.survivors
    ref_stats.Engine.loop_iterations;
  let _, _, native_s = List.find (fun (s, _, _) -> s = "native") results in
  Printf.printf "native first run (includes the C compile): %8.3f s\n"
    !native_cold;
  require "engines agree"
    (List.for_all (fun (_, s, _) -> s = ref_stats) results);
  require "native strictly fastest"
    (List.for_all
       (fun (spec, _, t) -> spec = "native" || native_s < t)
       results)

let ablation_obs_overhead () =
  header
    "Ablation: observability overhead on the staged GEMM sweep.\n\
     Tracing is a compile-time choice inside each engine, so the\n\
     budget is <3% when disabled; the instrumented run pays for the\n\
     extra clock reads and the per-domain event buffers.";
  let max_dim = if fast then 24 else 32 in
  let device = Device.scale ~max_dim ~max_threads:128 Device.tesla_k40c in
  let settings = { Gemm.default_settings with Gemm.device } in
  let plan = Plan.make_exn (Gemm.space ~settings ()) in
  ignore (Engine_staged.run plan) (* warm up *);
  let off = ns_per_run "staged-obs-off" (fun () -> ignore (Engine_staged.run plan)) in
  let recorder = Recorder.create () in
  let on =
    Obs.with_context
      { Obs.off with Obs.sink = Some (Recorder.sink recorder); instrumented = true }
      (fun () ->
        ns_per_run "staged-obs-on" (fun () -> ignore (Engine_staged.run plan)))
  in
  Printf.printf "tracing disabled: %10.3f ms/run\n" (off *. 1e-6);
  Printf.printf "tracing enabled:  %10.3f ms/run  (%d events recorded)\n"
    (on *. 1e-6) (Recorder.event_count recorder);
  Printf.printf "instrumented-run overhead: %.1f%%\n"
    (100.0 *. ((on /. off) -. 1.0));
  Printf.printf
    "disabled-vs-seed is the <3%% acceptance budget: the uninstrumented\n\
     closures are the ones the seed build compiled, so the only cost is\n\
     one flag check per run.\n"

(* The provenance companion to the obs ablation: the same sweep with
   and without a pruning-provenance collector installed. Attribution
   compiles to per-constraint counting programs, so the instrumented
   sweep pays one closure call per firing plus the slot mirror; with no
   collector the uninstrumented closures run and the cost is zero. *)
let ablation_provenance () =
  header
    "Ablation: single-pass pruning provenance on the staged GEMM sweep\n\
     (provenance off vs on).";
  let max_dim = if fast then 20 else 32 in
  let max_threads = if fast then 96 else 128 in
  let device = Device.scale ~max_dim ~max_threads Device.tesla_k40c in
  let settings = { Gemm.default_settings with Gemm.device } in
  let plan = Plan.make_exn (Gemm.space ~settings ()) in
  ignore (Engine_staged.run plan) (* warm up *);
  let off =
    ns_per_run "staged-prov-off" (fun () -> ignore (Engine_staged.run plan))
  in
  let on =
    ns_per_run "staged-prov-on" (fun () ->
        ignore (Provenance.with_collector (fun () -> Engine_staged.run plan)))
  in
  let stats, summary =
    Provenance.with_collector (fun () -> Engine_staged.run plan)
  in
  let removed = Pruned.total_removed summary in
  Printf.printf "provenance disabled: %10.3f ms/run\n" (off *. 1e-6);
  Printf.printf "provenance enabled:  %10.3f ms/run  (+%.1f%%)\n" (on *. 1e-6)
    (100.0 *. ((on /. off) -. 1.0));
  Printf.printf "%d survivors; %d removed points attributed\n"
    stats.Engine.survivors (Option.value removed ~default:0);
  require "provenance exact" (Option.is_some removed)

(* The constraint-propagation ablation: the interval pre-pass must keep
   the staged sweep's statistics byte-identical (dead values are
   replayed as bookkeeping) while the feasible-set diagram counts a
   billion-point constrained space exactly without enumerating it. *)
let ablation_propagate () =
  header
    "Ablation: constraint-propagation pre-pass on the staged GEMM sweep\n\
     (propagation off vs on; statistics must match exactly), plus exact\n\
     feasible-set counting of a ~1.5e9-point constrained space.";
  let max_dim = if fast then 20 else 32 in
  let max_threads = if fast then 96 else 128 in
  let device = Device.scale ~max_dim ~max_threads Device.tesla_k40c in
  let settings = { Gemm.default_settings with Gemm.device } in
  let plan = Plan.make_exn (Gemm.space ~settings ()) in
  let propagated = Plan.optimize ~passes:[ Propagate.pass ] plan in
  ignore (Engine_staged.run plan) (* warm up *);
  let off =
    ns_per_run "staged-prop-off" (fun () -> ignore (Engine_staged.run plan))
  in
  let on =
    ns_per_run "staged-prop-on" (fun () ->
        ignore (Engine_staged.run propagated))
  in
  let s_off = Engine_staged.run plan in
  let s_on = Engine_staged.run propagated in
  Printf.printf "propagation off: %10.3f ms/run\n" (off *. 1e-6);
  Printf.printf "propagation on:  %10.3f ms/run  (%+.1f%%)\n" (on *. 1e-6)
    (100.0 *. ((on /. off) -. 1.0));
  Printf.printf "%d survivors\n" s_off.Engine.survivors;
  require "statistics identical" (s_off = s_on);
  let synth_plan =
    Plan.optimize ~passes:[ Propagate.pass ]
      (Plan.make_exn (Synth.space ()))
  in
  let feas, count_s =
    time_once (fun () ->
        match Feasible.build synth_plan with
        | Ok f -> f
        | Error msg -> failwith ("bench: feasible build failed: " ^ msg))
  in
  let synth_count = Feasible.count feas in
  Printf.printf "synth feasible count: %d in %.3f ms\n" synth_count
    (count_s *. 1e3);
  require "synth count matches the closed form"
    (synth_count = Synth.expected_survivors ())

(* The live-introspection companion: the same staged sweep with the
   run record and the flight recorder installed vs plain. The record's
   heartbeat is throttled (at most one temp-then-rename per interval)
   and the flight ring is a per-domain array store, so the dominant
   cost is the same one the obs ablation measures: the engines pick
   their instrumented compiled path once any sink is live. The overhead
   is reported; the finalized run record and the flight dump are
   required. *)
let ablation_status () =
  header
    "Ablation: run record + flight recorder on the staged GEMM\n\
     sweep (introspection off vs on).";
  let max_dim = if fast then 20 else 32 in
  let max_threads = if fast then 96 else 128 in
  let device = Device.scale ~max_dim ~max_threads Device.tesla_k40c in
  let settings = { Gemm.default_settings with Gemm.device } in
  let plan = Plan.make_exn (Gemm.space ~settings ()) in
  ignore (Engine_staged.run plan) (* warm up *);
  let off =
    ns_per_run "staged-status-off" (fun () -> ignore (Engine_staged.run plan))
  in
  let runs_dir = Filename.temp_file "beast_bench_runs" "" in
  Sys.remove runs_dir;
  let record_file = Filename.concat runs_dir "bench-status.json" in
  let flight_file = Filename.temp_file "beast_bench_flight" ".jsonl" in
  let cfg =
    {
      Run_config.default with
      Run_config.runs_dir = Some runs_dir;
      status_every_s = 0.1;
      flight = Some flight_file;
      run_id = Some "bench-status";
    }
  in
  let on = ref 0.0 in
  ignore
    (Run_config.with_instrumentation ~space:"gemm" ~engine:"staged" cfg
       (fun _ ->
         on :=
           ns_per_run "staged-status-on" (fun () ->
               ignore (Engine_staged.run plan));
         0));
  let on = !on in
  Printf.printf "introspection disabled: %10.3f ms/run\n" (off *. 1e-6);
  Printf.printf "record + flight on:     %10.3f ms/run  (%+.1f%%)\n"
    (on *. 1e-6) (100.0 *. ((on /. off) -. 1.0));
  require "status parses"
    (match Status.of_file record_file with
    | Ok r -> r.Status.state = Status.Completed
    | Error _ -> false);
  require "flight non-empty"
    (match Sink_jsonl.read_file flight_file with
    | Ok events -> Array.length events > 0
    | Error _ -> false);
  List.iter
    (fun f -> try Sys.remove f with Sys_error _ -> ())
    [ record_file; flight_file ];
  try Unix.rmdir runs_dir with Unix.Unix_error _ -> ()

let () =
  if Array.length Sys.argv > 1 then begin
    prerr_endline
      "usage: main.exe (no arguments; BEAST_BENCH_FAST=1 or \
       BEAST_BENCH_QUICK=1 selects reduced sizes)";
    exit 2
  end;
  Printf.printf "BEAST reproduction benchmarks%s\n"
    (if quick then " (QUICK smoke mode)" else if fast then " (FAST mode)" else "");
  if not quick then begin
    fig17 ();
    fig18 ();
    fig19 ();
    sweep_speedup ();
    table1 ();
    funnel ()
  end;
  fig16 ();
  ablation_hoisting ();
  if not quick then begin
    ablation_loop_order ();
    ablation_divisor_iterator ()
  end;
  ablation_parallel ();
  ablation_stealing ();
  ablation_provenance ();
  ablation_propagate ();
  ablation_checkpoint ();
  ablation_status ();
  ablation_native ();
  if not quick then ablation_obs_overhead ();
  line ();
  print_endline "done; see EXPERIMENTS.md for paper-vs-measured discussion.";
  match List.rev !false_facts with
  | [] -> ()
  | names ->
    Printf.eprintf "bench: false: %s\n" (String.concat "; " names);
    exit 1
