open Beast_core

let engines_on sp =
  let plan = Plan.make_exn sp in
  [
    ("interp-naive", (Engine_interp.run ~variant:`Naive sp).Engine.survivors);
    ("interp-hoisted", (Engine_interp.run ~variant:`Hoisted sp).Engine.survivors);
    ("vm", (Engine_vm.run_plan plan).Engine.survivors);
    ("staged", (Engine_staged.run plan).Engine.survivors);
    ("parallel-1", (Engine_parallel.run ~domains:1 plan).Engine.survivors);
    ("parallel-3", (Engine_parallel.run ~domains:3 plan).Engine.survivors);
  ]

let check_all_engines sp =
  let expected = Support.survivor_count sp in
  List.iter
    (fun (name, got) ->
      Alcotest.(check int) (name ^ " survivors") expected got)
    (engines_on sp)

let test_triangle_agreement () = check_all_engines (Support.triangle_space ())
let test_mixed_agreement () = check_all_engines (Support.mixed_space ())

(* Closure iterators that read derived variables (fft's divisors of
   conv_len, gemm-opt's divisor pairs) must find them bound when their
   loop starts, even in the unhoisted plan. *)
let test_naive_binds_iterator_deriveds () =
  let gemm_opt =
    let device =
      Beast_gpu.Device.scale ~max_dim:8 ~max_threads:128
        Beast_gpu.Device.tesla_k40c
    in
    Beast_kernels.Gemm.space_divisor_opt
      ~settings:{ Beast_kernels.Gemm.default_settings with device }
      ()
  in
  let points variant sp =
    let acc = ref [] in
    let on_hit lookup =
      acc :=
        List.map (fun it -> lookup it.Space.it_name) (Space.iterators sp)
        :: !acc
    in
    ignore (Engine_interp.run ~on_hit ~variant sp);
    List.sort compare !acc
  in
  List.iter
    (fun sp ->
      Alcotest.(check bool)
        (Space.name sp ^ ": naive survivors = hoisted")
        true
        (points `Naive sp = points `Hoisted sp))
    [ Beast_kernels.Fft.space ~max_size:64 (); gemm_opt ]

let test_triangle_exact () =
  (* x in 0..7, y in x..7, prune odd x+y and x>5: count by hand. *)
  let count = ref 0 in
  for x = 0 to 7 do
    for y = x to 7 do
      if (x + y) mod 2 = 0 && x <= 5 then incr count
    done
  done;
  let s = Engine_staged.run_space (Support.triangle_space ()) in
  Alcotest.(check int) "hand count" !count s.Engine.survivors

let test_stats_pruned_counts () =
  (* big_x depends only on x, so hoisting lifts it to depth 1: it fires
     once per rejected x (2 times) and the y loop never opens there.
     odd_sum sits at depth 2 and fires per surviving (x, y) pair with an
     odd sum. *)
  let s = Engine_staged.run_space (Support.triangle_space ()) in
  let fired name =
    let _, _, k =
      List.find (fun (n, _, _) -> n = name) (Array.to_list s.Engine.pruned)
    in
    k
  in
  let odd = ref 0 in
  for x = 0 to 5 do
    for y = x to 7 do
      if (x + y) mod 2 = 1 then incr odd
    done
  done;
  Alcotest.(check int) "big_x fired once per pruned subtree" 2 (fired "big_x");
  Alcotest.(check int) "odd_sum fired" !odd (fired "odd_sum");
  (* x loop: 8 entries; y loop opens only for x <= 5: 8+7+6+5+4+3 = 33. *)
  Alcotest.(check int) "loop iterations" (8 + 33) s.Engine.loop_iterations

let test_vm_staged_stats_identical () =
  let plan = Plan.make_exn (Support.mixed_space ()) in
  Alcotest.check Support.stats_testable "vm = staged"
    (Engine_staged.run plan) (Engine_vm.run_plan plan)

let test_parallel_stats_match_sequential () =
  let plan = Plan.make_exn (Support.triangle_space ()) in
  let seq = Engine_staged.run plan in
  let par = Engine_parallel.run ~domains:4 plan in
  Alcotest.(check int) "survivors" seq.Engine.survivors par.Engine.survivors;
  Alcotest.(check int) "pruned total" (Engine.total_pruned seq)
    (Engine.total_pruned par)

let test_work_stealing_matches_staged_on_gemm () =
  (* The acceptance bar for the chunked scheduler: identical totals and
     per-constraint pruned counts to the sequential staged sweep on the
     real GEMM space, not just on toy nests. *)
  let plan = Plan.make_exn (Support.gemm_space ~max_dim:16 ~max_threads:64) in
  let seq = Engine_staged.run plan in
  List.iter
    (fun domains ->
      Alcotest.check Support.stats_testable
        (Printf.sprintf "stealing domains=%d" domains)
        seq
        (Engine_parallel.run ~domains plan))
    [ 2; 3; 4 ]

(* The skewed GEMM-20 of the bench's work-stealing ablation: a
   divisibility constraint on the outermost iterator leaves every
   survivor in one round-robin residue class, so one of 4 static slices
   holds nearly all the work, while no one of 32 chunks holds more than
   58.29% of it. The work shares are machine-independent. *)
let test_skewed_gemm_work_shares () =
  let sp = Support.gemm_space ~max_dim:20 ~max_threads:96 in
  let open Expr.Infix in
  Space.constrain sp ~cls:Space.Hard "skew_blocking"
    (Expr.var "dim_m" %: Expr.int 4 <>: Expr.int 0);
  let plan = Plan.make_exn sp in
  let seq = Engine_staged.run plan in
  Alcotest.(check int) "survivors" 2080 seq.Engine.survivors;
  Alcotest.(check int) "loop iterations" 48963 seq.Engine.loop_iterations;
  let share part =
    100.0
    *. float_of_int (Engine_staged.run part).Engine.loop_iterations
    /. float_of_int seq.Engine.loop_iterations
  in
  (* The static round-robin split: slice k takes the outer positions k,
     k + 4, ...; dim_m has 20, so a 20-way chunk_outer is one position
     per chunk. *)
  let position p = share (Plan.chunk_outer plan ~index:p ~of_:20) in
  Alcotest.(check (list (float 0.05)))
    "static slice shares (%)" [ 0.01; 0.01; 0.01; 99.97 ]
    (List.init 4 (fun k ->
         List.fold_left ( +. ) 0.0
           (List.init 5 (fun j -> position (k + (4 * j))))));
  Alcotest.(check (float 0.05))
    "largest of 32 chunk shares (%)" 58.29
    (List.fold_left Float.max 0.0
       (List.init 32 (fun index ->
            share (Plan.chunk_outer plan ~index ~of_:32))));
  Alcotest.check Support.stats_testable "parallel:4 = staged" seq
    (Engine_parallel.run ~domains:4 plan)

let test_parallel_more_domains_than_trip_count () =
  (* 16 domains over an outer loop with 8 values: most chunks are empty;
     stats must still match the sequential run, depth-0 counters
     included. *)
  let sp = Support.triangle_space () in
  let open Expr.Infix in
  Space.constrain sp ~cls:Space.Soft "d0_never" (Expr.int 9 <: Expr.int 8);
  let plan = Plan.make_exn sp in
  let seq = Engine_staged.run plan in
  Alcotest.check Support.stats_testable "stealing" seq
    (Engine_parallel.run ~domains:16 plan)

(* The calling domain is worker 0 and a helper is spawned only where it
   can claim a chunk: the [helpers] arg of the [sweep:parallel] span is
   [min domains pending - 1]. With no helper every chunk runs on the
   calling domain. *)
let test_parallel_helper_count () =
  let open Beast_obs in
  let plan = Plan.make_exn (Support.triangle_space ()) in
  let seq = Engine_staged.run plan in
  let check what ~helpers f =
    let r = Recorder.create () in
    let ctx = { Obs.off with sink = Some (Recorder.sink r) } in
    (match Obs.with_context ctx f with
    | Engine_intf.Finished stats ->
      Alcotest.check Support.stats_testable (what ^ ": stats") seq stats
    | Engine_intf.Interrupted _ -> Alcotest.failf "%s: interrupted" what);
    let begins =
      List.filter
        (fun (ev : Obs.event) ->
          ev.ev_name = "sweep:parallel" && ev.ev_kind = Obs.Begin)
        (Array.to_list (Recorder.events r))
    in
    (match begins with
    | [ ev ] ->
      Alcotest.(check (option int)) (what ^ ": helpers") (Some helpers)
        (match List.assoc_opt "helpers" ev.ev_args with
        | Some (Obs.Int n) -> Some n
        | _ -> None)
    | evs ->
      Alcotest.failf "%s: %d sweep:parallel spans" what (List.length evs));
    if helpers = 0 then
      Alcotest.(check (list int)) (what ^ ": only the calling domain emits")
        [ Obs.domain_id () ] (Recorder.domains r)
  in
  (* A checkpoint of an [n_chunks]-way split missing only [pending]. *)
  let resume ~n_chunks pending =
    Checkpoint.make ~plan ~shard:Stats_io.unsharded ~n_chunks
      (List.filter_map
         (fun index ->
           if List.mem index pending then None
           else
             Some
               ( index,
                 Engine_staged.run
                   (Plan.chunk_outer plan ~index ~of_:n_chunks) ))
         (List.init n_chunks Fun.id))
  in
  check "domains:1" ~helpers:0 (fun () ->
      Engine_parallel.run_resumable ~domains:1 plan);
  check "domains:3" ~helpers:2 (fun () ->
      Engine_parallel.run_resumable ~domains:3 plan);
  check "resume, one pending chunk" ~helpers:0 (fun () ->
      Engine_parallel.run_resumable ~resume:(resume ~n_chunks:16 [ 5 ])
        ~domains:4 plan);
  check "domains:16, three pending chunks" ~helpers:2 (fun () ->
      Engine_parallel.run_resumable ~resume:(resume ~n_chunks:16 [ 0; 7; 15 ])
        ~domains:16 plan)

let test_parallel_firing_depth0_deduped () =
  (* A depth-0 constraint that fires runs once per chunk; the merged
     count must stay 1, as sequentially. *)
  let sp = Support.triangle_space () in
  let open Expr.Infix in
  Space.constrain sp ~cls:Space.Hard "d0_always" (Expr.int 8 <: Expr.int 9);
  let plan = Plan.make_exn sp in
  let seq = Engine_staged.run plan in
  Alcotest.(check int) "sequential survivors" 0 seq.Engine.survivors;
  Alcotest.check Support.stats_testable "stealing" seq
    (Engine_parallel.run ~domains:4 plan)

let test_on_hit_receives_bindings () =
  let acc = ref [] in
  let on_hit lookup =
    acc := (Value.to_int (lookup "x"), Value.to_int (lookup "y"),
            Value.to_int (lookup "s")) :: !acc
  in
  ignore (Engine_staged.run_space ~on_hit (Support.triangle_space ()));
  Alcotest.(check bool) "every hit satisfies constraints" true
    (List.for_all (fun (x, y, s) -> s = x + y && s mod 2 = 0 && x <= 5) !acc);
  let expected = Support.survivor_count (Support.triangle_space ()) in
  Alcotest.(check int) "hit count" expected (List.length !acc)

let test_on_hit_matches_brute_force () =
  let sp = Support.mixed_space () in
  let expected =
    List.map
      (fun bindings -> List.map (fun (n, v) -> (n, Value.to_int v)) bindings)
      (Support.brute_force sp)
  in
  let plan = Plan.make_exn sp in
  let got = ref [] in
  let on_hit lookup =
    got :=
      List.map
        (fun n -> (n, Value.to_int (lookup n)))
        plan.Plan.iter_order
      :: !got
  in
  ignore (Engine_staged.run ~on_hit plan);
  let norm l = List.sort compare l in
  Alcotest.(check bool) "same survivor set" true
    (norm expected = norm (List.rev !got))

let test_empty_space () =
  (* A space with no iterators has exactly one (empty) point. *)
  let sp = Space.create () in
  let s = Engine_staged.run_space sp in
  Alcotest.(check int) "one point" 1 s.Engine.survivors;
  (* And a depth-0 constraint can prune it. *)
  let sp = Space.create () in
  Space.constrain sp "never" (Expr.bool true);
  let s = Engine_staged.run_space sp in
  Alcotest.(check int) "zero points" 0 s.Engine.survivors

let test_empty_iterator () =
  let sp = Space.create () in
  Space.iterator sp "x" (Iter.range_i 5 5);
  Space.iterator sp "y" (Iter.range_i 0 10);
  let s = Engine_staged.run_space sp in
  Alcotest.(check int) "no points" 0 s.Engine.survivors;
  Alcotest.(check int) "outer loop never iterates" 0 s.Engine.loop_iterations

let test_division_by_zero_propagates () =
  let open Expr.Infix in
  let sp = Space.create () in
  Space.iterator sp "x" (Iter.range_i 0 3);
  Space.derived sp "bad" (Expr.int 1 /: Expr.var "x");
  Alcotest.check_raises "staged raises" Division_by_zero (fun () ->
      ignore (Engine_staged.run_space sp));
  Alcotest.check_raises "vm raises" Division_by_zero (fun () ->
      ignore (Engine_vm.run_plan (Plan.make_exn sp)))

(* ---- Loop accounting: the staged engine adds a loop's trip count once
   per entry, so every range shape must count exactly what the
   interpreter (which materializes the values) counts. ---- *)

let exact_stats = Alcotest.testable Engine.pp_stats ( = )

(* Staged vs interp on the unpropagated plan, in each staged mode: plain,
   provenance-only and fully instrumented (metrics). The VM shares the
   trip-count formula, so it must agree too. *)
let check_accounting name sp =
  let plan = Plan.make_exn sp in
  let expected = Engine_interp.run_plan plan in
  Alcotest.check exact_stats (name ^ ": vm") expected (Engine_vm.run_plan plan);
  Alcotest.check exact_stats (name ^ ": plain") expected (Engine_staged.run plan);
  Alcotest.check exact_stats (name ^ ": provenance") expected
    (fst (Provenance.with_collector (fun () -> Engine_staged.run plan)));
  let metrics = Some (Beast_obs.Metrics.create ()) in
  Alcotest.check exact_stats (name ^ ": metrics") expected
    (Beast_obs.Obs.with_context
       { Beast_obs.Obs.off with metrics; instrumented = true }
       (fun () -> Engine_staged.run plan));
  expected

let test_accounting_range_shapes () =
  let open Expr.Infix in
  let sp = Space.create () in
  (* Negative step: 10, 6, 2, -2. *)
  Space.iterator sp "x" (Iter.range_i ~step:(-4) 10 (-3));
  (* Step not dividing the span: x, x+3, ... below 10. *)
  Space.iterator sp "y" (Iter.range ~step:(Expr.int 3) (Expr.var "x") (Expr.int 10));
  (* Empty when x >= 2 (forward) and always empty (backward). *)
  Space.iterator sp "z" (Iter.range (Expr.var "x") (Expr.int 2));
  Space.iterator sp "w" (Iter.range_i ~step:1 5 2);
  Space.constrain sp "odd" (Expr.var "y" %: Expr.int 2 <>: Expr.int 0);
  ignore (check_accounting "range shapes" sp);
  let sp = Space.create () in
  Space.iterator sp "a" (Iter.range_i 5 5);
  Space.iterator sp "b" (Iter.range_i 0 3);
  Alcotest.(check int) "empty outer range" 0
    (check_accounting "empty range" sp).Engine.loop_iterations

let test_accounting_overflowing_trip () =
  (* stop - start + step - 1 overflows for both ranges; the true counts
     are 3 (0, max_int/2, 2*(max_int/2)) and 4 (max_int down by 2^61). *)
  let open Expr.Infix in
  let sp = Space.create () in
  Space.iterator sp "x" (Iter.range_i ~step:(max_int / 2) 0 max_int);
  Space.iterator sp "y" (Iter.range_i ~step:(min_int / 2) max_int min_int);
  Space.derived sp "d" (Expr.var "x" +: Expr.var "y");
  Space.constrain sp "neg" (Expr.var "d" <: Expr.int 0);
  let s = check_accounting "overflowing trip count" sp in
  Alcotest.(check int) "entries" (3 + (3 * 4)) s.Engine.loop_iterations;
  Alcotest.(check int) "trip_count" 4
    (Plan.trip_count ~start:max_int ~stop:min_int ~step:(min_int / 2))

let test_accounting_values_and_dyn () =
  let open Expr.Infix in
  let sp = Space.create () in
  Space.iterator sp "x" (Iter.ints [ 3; -1; 4; 1; 5 ]);
  Space.iterator sp "u"
    (Iter.union (Iter.upto (Expr.var "x")) (Iter.ints [ 7; 9 ]));
  Space.constrain sp "big" (Expr.var "u" >: Expr.int 6);
  ignore (check_accounting "values and dynamic" sp)

let test_accounting_zero_step () =
  let open Expr.Infix in
  let sp = Space.create () in
  Space.iterator sp "x" (Iter.range_i 0 3);
  Space.iterator sp "y"
    (Iter.range ~step:(Expr.var "x" -: Expr.var "x") (Expr.int 0) (Expr.int 5));
  let plan = Plan.make_exn sp in
  (* Every in-process engine names the loop in one diagnostic. *)
  List.iter
    (fun (name, run) ->
      match run () with
      | (_ : Engine.stats) -> Alcotest.failf "%s accepted a zero step" name
      | exception Expr.Eval_error msg ->
        Alcotest.(check string) (name ^ " names the loop") "y: zero range step"
          msg)
    [
      ("staged", fun () -> Engine_staged.run plan);
      ("vm", fun () -> Engine_vm.run_plan plan);
      ("interp plan", fun () -> Engine_interp.run_plan plan);
      ("interp space", fun () -> Engine_interp.run sp);
      ("interp naive", fun () -> Engine_interp.run ~variant:`Naive sp);
      ("parallel", fun () -> Engine_parallel.run ~domains:2 plan);
    ]

(* A closure that reads a name it does not declare fails with one
   diagnostic naming it, on every in-process engine and in the diagram,
   whether it is an iterator or a constraint body. *)
let test_undeclared_closure_read () =
  let space body =
    let sp = Space.create () in
    Space.iterator sp "x" (Iter.range_i 0 3);
    Space.iterator sp "y" (Iter.range_i 0 2);
    body sp;
    sp
  in
  let sum env = Value.to_int (env "x") + Value.to_int (env "y") in
  List.iter
    (fun (owner, sp) ->
      let plan = Plan.make_exn sp in
      let expected = owner ^ " reads y, which it does not declare" in
      List.iter
        (fun (name, run) ->
          match run () with
          | () -> Alcotest.failf "%s: %s ran" owner name
          | exception Expr.Eval_error msg ->
            Alcotest.(check string) (owner ^ " on " ^ name) expected msg)
        [
          ("staged", fun () -> ignore (Engine_staged.run plan));
          ("interp plan", fun () -> ignore (Engine_interp.run_plan plan));
          ("interp space", fun () -> ignore (Engine_interp.run sp));
          ( "interp naive",
            fun () -> ignore (Engine_interp.run ~variant:`Naive sp) );
          ("vm", fun () -> ignore (Engine_vm.run_plan plan));
          ("parallel", fun () -> ignore (Engine_parallel.run ~domains:2 plan));
          ( "feasible",
            fun () ->
              match Feasible.build plan with
              | Ok _ -> ()
              | Error msg -> raise (Expr.Eval_error msg) );
        ])
    [
      ( "z",
        space (fun sp ->
            Space.iterator sp "z"
              (Iter.of_list_fn ~deps:[ "x" ] (fun env -> [ Value.Int (sum env) ])))
      );
      ( "odd",
        space (fun sp ->
            Space.constrain_f sp "odd" ~deps:[ "x" ] (fun env ->
                Value.Bool (sum env mod 2 = 1))) );
    ]

let test_dynamic_algebra_iterators () =
  (* Union/intersection/filter with iterator-dependent operands exercise
     the CDyn lowering in every engine. *)
  let sp = Space.create () in
  Space.iterator sp "x" (Iter.range_i 1 6);
  Space.iterator sp "u"
    (Iter.union (Iter.upto (Expr.var "x")) (Iter.ints [ 7; 9 ]));
  Space.iterator sp "f"
    (Iter.filter
       (fun v -> Value.to_int v mod 2 = 0)
       (Iter.concat (Iter.upto (Expr.var "u")) (Iter.ints [ 10 ])));
  check_all_engines sp

let test_negative_values_everywhere () =
  let open Expr.Infix in
  let sp = Space.create () in
  Space.iterator sp "x" (Iter.range_i (-5) 6);
  Space.iterator sp "y" (Iter.range ~step:(Expr.int (-2)) (Expr.int 5) (Expr.var "x"));
  Space.derived sp "d" (Expr.var "x" *: Expr.var "y");
  Space.constrain sp "negprod" (Expr.var "d" <: Expr.int 0);
  check_all_engines sp

let test_vm_disassembly () =
  let plan = Plan.make_exn (Support.triangle_space ()) in
  let prog = Engine_vm.compile plan in
  let text = Engine_vm.disassemble prog in
  Alcotest.(check bool) "has instructions" true
    (Engine_vm.instruction_count prog > 10);
  let contains sub =
    let n = String.length text and m = String.length sub in
    let rec go i = i + m <= n && (String.sub text i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "prune instruction" true (contains "prune");
  Alcotest.(check bool) "hit instruction" true (contains "hit");
  Alcotest.(check bool) "trip instruction" true (contains "trip")

let test_deep_nest () =
  (* Eight nested dependent loops; checks engines handle depth. *)
  let sp = Space.create () in
  Space.iterator sp "x0" (Iter.range_i 1 3);
  for i = 1 to 7 do
    Space.iterator sp
      (Printf.sprintf "x%d" i)
      (Iter.range (Expr.int 0) (Expr.var (Printf.sprintf "x%d" (i - 1))))
  done;
  check_all_engines sp

(* Plans with a loop the staged engine solves instead of testing. *)
let rec has_solved_loop steps =
  List.exists
    (fun (step : Plan.step) ->
      match step with
      | Loop { l_slot; l_iter; l_body; _ } ->
        Option.is_some (Plan.solved_check ~slot:l_slot l_iter l_body)
        || has_solved_loop l_body
      | Derive _ | Check _ | Static_prune _ | Yield -> false)
    steps

let test_generator_reaches_solved () =
  let rng = Random.State.make [| 17 |] in
  let solved =
    List.length
      (List.filter
         (fun _ ->
           let sp = Support.space_of (Support.gen_space rng) in
           has_solved_loop (Plan.make_exn sp).Plan.steps)
         (List.init 400 Fun.id))
  in
  if solved < 40 then
    Alcotest.failf "only %d of 400 generated plans have a solved check" solved

(* ---- Solved pairs: the window paths against the interpreter ---- *)

let rec has_pair steps =
  List.exists
    (fun (step : Plan.step) ->
      match step with
      | Loop { l_slot; l_iter; l_body; _ } ->
        Option.is_some (Plan.solved_pair ~slot:l_slot l_iter l_body)
        || has_pair l_body
      | Derive _ | Check _ | Static_prune _ | Yield -> false)
    steps

let test_generator_reaches_pairs () =
  let rng = Random.State.make [| 17 |] in
  let pairs =
    List.length
      (List.filter
         (fun _ ->
           let sp = Support.space_of (Support.gen_space rng) in
           has_pair (Plan.make_exn sp).Plan.steps)
         (List.init 400 Fun.id))
  in
  if pairs < 40 then
    Alcotest.failf "only %d of 400 generated plans have a solved pair" pairs

let have_cc =
  lazy
    (Sys.command
       (Printf.sprintf "command -v %s >/dev/null 2>&1" (Engine_native.cc ()))
    = 0)

(* A private native cache, removed afterwards; [None] without a C
   compiler. *)
let with_native_cache f =
  if not (Lazy.force have_cc) then f None
  else
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "beast_test_engines_%d" (Unix.getpid ()))
    in
    Fun.protect
      ~finally:(fun () ->
        if Sys.file_exists dir then begin
          Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
          Unix.rmdir dir
        end)
      (fun () -> f (Some dir))

(* The paths that window a solved pair's outer loop: staged, parallel:2
   and, given a native cache, native:1 and native:2. *)
let window_paths ?native plan =
  [
    ("staged", fun () -> Engine_staged.run plan);
    ("parallel:2", fun () -> Engine_parallel.run ~domains:2 plan);
  ]
  @
  match native with
  | None -> []
  | Some workdir ->
    List.map
      (fun threads ->
        ( Printf.sprintf "native:%d" threads,
          fun () -> Engine_native.run ~workdir ~threads plan ))
      [ 1; 2 ]

let stats_bytes plan stats = Stats_io.to_json (Stats_io.of_stats ~plan stats)

let window_paths_agree ?native plan =
  let expected = stats_bytes plan (Engine_interp.run_plan plan) in
  List.for_all
    (fun (_, run) -> stats_bytes plan (run ()) = expected)
    (window_paths ?native plan)

(* test/golden/pair_edge.beast (outer ranges from 0 and from a negative
   value by 2, targets 24, 0 and -6) and GEMM-12, propagated and not:
   the interpreter's bytes on every window path. *)
let test_pair_edges () =
  let edge =
    match Beast_dsl.Parse.space_of_file "golden/pair_edge.beast" with
    | Ok sp -> sp
    | Error e -> Alcotest.failf "parse: %a" Beast_dsl.Parse.pp_error e
  in
  with_native_cache (fun native ->
      List.iter
        (fun sp ->
          let plan = Plan.make_exn sp in
          Alcotest.(check bool) (Space.name sp ^ " has a pair") true
            (has_pair plan.Plan.steps);
          let expected = stats_bytes plan (Engine_interp.run_plan plan) in
          List.iter
            (fun plan ->
              List.iter
                (fun (name, run) ->
                  Alcotest.(check string) (Space.name sp ^ " on " ^ name)
                    expected
                    (stats_bytes plan (run ())))
                (window_paths ?native plan))
            [ plan; Propagate.pass plan ])
        [ edge; Support.gemm_space ~max_dim:12 ~max_threads:48 ])

(* The inner bounds are evaluated once per entry with values, as the
   first inner loop would: an empty outer loop raises nothing, and a
   non-empty one gives the inner loop's zero step or division by zero
   on every path, the diagram's included. *)
let test_pair_inner_raises () =
  let open Expr.Infix in
  let space ~n inner =
    let sp = Space.create () in
    Space.setting_i sp "n" n;
    Space.setting_i sp "z" 0;
    Space.iterator sp "x" (Iter.range (Expr.int 1) (Expr.var "n"));
    Space.iterator sp "y" inner;
    Space.constrain sp "pair" ((Expr.var "x" *: Expr.var "y") <>: Expr.int 6);
    sp
  in
  let zero_step = Iter.range ~step:(Expr.var "z") (Expr.int 1) (Expr.int 9) in
  let div_zero = Iter.range (Expr.int 1) (Expr.int 12 /: Expr.var "z") in
  with_native_cache (fun native ->
      List.iter
        (fun (what, inner, expected) ->
          let raising = Plan.make_exn (space ~n:4 inner) in
          let empty = Plan.make_exn (space ~n:1 inner) in
          Alcotest.(check bool) (what ^ ": a pair") true
            (has_pair raising.Plan.steps);
          List.iter
            (fun (name, run) ->
              match run () with
              | (_ : Engine.stats) -> Alcotest.failf "%s: %s ran" what name
              | exception (Expr.Eval_error msg | Engine_native.Error msg) ->
                Alcotest.(check string) (what ^ " on " ^ name) expected msg
              | exception Division_by_zero ->
                Alcotest.(check string) (what ^ " on " ^ name) expected
                  "division by zero")
            (("interp", fun () -> Engine_interp.run_plan raising)
            :: window_paths ?native raising);
          Alcotest.(check bool) (what ^ ": the diagram refuses") true
            (Result.is_error (Feasible.build raising));
          List.iter
            (fun (name, run) ->
              Alcotest.(check int) (what ^ ": empty outer on " ^ name) 0
                (run ()).Engine.loop_iterations)
            (window_paths ?native empty);
          Alcotest.(check int) (what ^ ": empty diagram") 0
            (Feasible.count (Result.get_ok (Feasible.build empty))))
        [
          ("zero step", zero_step, "y: zero range step");
          ("division by zero", div_zero, "division by zero");
        ])

let prop_window_paths_match_interp =
  QCheck.Test.make ~name:"window paths give the interpreter's bytes"
    ~count:200 Support.arb_space (fun descr ->
      let plan = Plan.make_exn (Support.space_of descr) in
      window_paths_agree plan && window_paths_agree (Propagate.pass plan))

(* Native compiles each draw, so it sees fewer, and only draws that
   hold a pair. *)
let prop_native_window_matches_interp =
  QCheck.Test.make ~name:"native window gives the interpreter's bytes"
    ~count:8 Support.arb_space (fun descr ->
      let plan = Plan.make_exn (Support.space_of descr) in
      QCheck.assume (has_pair plan.Plan.steps);
      with_native_cache (function
        | None -> true
        | Some workdir -> window_paths_agree ~native:workdir plan))

let prop_engines_agree =
  QCheck.Test.make ~name:"all engines match brute force" ~count:200
    Support.arb_space (fun descr ->
      let sp = Support.space_of descr in
      let expected = Support.survivor_count sp in
      List.for_all (fun (_, got) -> got = expected) (engines_on sp))

let prop_vm_staged_stats =
  QCheck.Test.make ~name:"vm and staged produce identical stats" ~count:200
    Support.arb_space (fun descr ->
      let plan = Plan.make_exn (Support.space_of descr) in
      let a = Engine_staged.run plan and b = Engine_vm.run_plan plan in
      a = b)

let prop_hoisting_preserves_semantics =
  QCheck.Test.make ~name:"hoisting never changes the survivor set" ~count:150
    Support.arb_space (fun descr ->
      let sp = Support.space_of descr in
      let hoisted = Engine_staged.run (Plan.make_exn ~hoist:true sp) in
      let flat = Engine_staged.run (Plan.make_exn ~hoist:false sp) in
      hoisted.Engine.survivors = flat.Engine.survivors)

let prop_constraint_subsets_monotone =
  QCheck.Test.make ~name:"removing constraints never removes survivors"
    ~count:150 Support.arb_space (fun descr ->
      let sp = Support.space_of descr in
      let all = (Engine_staged.run_space sp).Engine.survivors in
      let none =
        (Engine_staged.run_space (Space.filter_constraints sp ~keep:(fun _ -> false)))
          .Engine.survivors
      in
      none >= all)

(* The shard check: a 1..4-way [Plan.chunk_outer] split, each shard
   run as is and propagated after chunking (as [beast sweep --shard]
   does), merges with [Stats_io.merge] to the unsharded record's bytes.
   Half the draws gain a depth-0 check that fires, so every shard counts
   it once and the merge must keep one count, not the sum. *)
let prop_chunks_partition =
  QCheck.Test.make ~name:"outer chunks partition the space" ~count:100
    QCheck.(pair Support.arb_space bool)
    (fun (descr, gated) ->
      let sp = Support.space_of descr in
      if gated then
        Space.constrain sp "gate" Expr.Infix.(Expr.int 8 <: Expr.int 9);
      let plan = Plan.make_exn sp in
      let full =
        Stats_io.to_json (Stats_io.of_stats ~plan (Engine_staged.run plan))
      in
      List.for_all
        (fun (of_, propagate) ->
          let shard index =
            let chunk = Plan.chunk_outer plan ~index ~of_ in
            let chunk =
              if propagate then Plan.optimize ~passes:[ Propagate.pass ] chunk
              else chunk
            in
            Stats_io.of_stats ~plan
              ~shard:{ Stats_io.shard_index = index; shard_of = of_ }
              (Engine_staged.run chunk)
          in
          match Stats_io.merge (List.init of_ shard) with
          | Ok merged -> Stats_io.to_json merged = full
          | Error _ -> false)
        (List.concat_map
           (fun of_ -> [ (of_, false); (of_, true) ])
           [ 1; 2; 3; 4 ]))

(* The interpreter tests every value, so it is the oracle for what every
   staged mode records: the provenance summary and the stats of a plain
   staged run, a two-domain parallel run and a staged run with a metrics
   registry installed (the instrumented mode). *)
let staged_modes_match_interp plan =
  let collect run () = Provenance.with_collector run in
  let instrumented run () =
    Beast_obs.Obs.with_context
      {
        Beast_obs.Obs.off with
        metrics = Some (Beast_obs.Metrics.create ());
        instrumented = true;
      }
      (collect run)
  in
  let expected = collect (fun () -> Engine_interp.run_plan plan) () in
  List.for_all
    (fun run -> run () = expected)
    [
      collect (fun () -> Engine_staged.run plan);
      collect (fun () -> Engine_parallel.run ~domains:2 plan);
      instrumented (fun () -> Engine_staged.run plan);
    ]

let prop_provenance_matches_interp =
  QCheck.Test.make ~name:"provenance matches the interpreter" ~count:100
    Support.arb_space (fun descr ->
      let plan = Plan.make_exn (Support.space_of descr) in
      staged_modes_match_interp plan
      && staged_modes_match_interp (Propagate.pass plan))

(* Shapes the generator does not draw: a solved check [3 * x != 12] or a
   pair [x * y != 12] at depth 0, where each skipped [x] keys a density
   cell, or at depth 1 below [a]; and a last loop [z] whose bound makes
   the removal count a constant or read [a] (charged in bulk), [x] (a
   solve then tests every value, a window charges each miss on its own)
   or [y] (the pair tests every value). *)
let test_solved_provenance_shapes () =
  let open Expr.Infix in
  let space ~outer ~window bound =
    let sp = Space.create () in
    if outer then Space.iterator sp "a" (Iter.range_i 1 3);
    Space.iterator sp "x" (Iter.range_i 1 13);
    if window then begin
      Space.iterator sp "y" (Iter.range_i 1 13);
      Space.constrain sp "c" ((Expr.var "x" *: Expr.var "y") <>: Expr.int 12)
    end
    else Space.constrain sp "c" ((Expr.int 3 *: Expr.var "x") <>: Expr.int 12);
    Space.iterator sp "z" (Iter.range (Expr.int 0) (Expr.var bound));
    Space.setting_i sp "three" 3;
    sp
  in
  List.iter
    (fun (outer, window, bound) ->
      let what =
        Printf.sprintf "%s at depth %d, z below %s"
          (if window then "window" else "solve")
          (if outer then 1 else 0)
          bound
      in
      let plan = Plan.make_exn (space ~outer ~window bound) in
      Alcotest.(check bool) (what ^ ": solved") true
        ((if window then has_pair else has_solved_loop) plan.Plan.steps);
      Alcotest.(check bool) what true (staged_modes_match_interp plan))
    (List.concat_map
       (fun (outer, window) ->
         List.map
           (fun bound -> (outer, window, bound))
           ([ "three"; "x" ] @ (if outer then [ "a" ] else [])
           @ if window then [ "y" ] else []))
       [ (false, false); (false, true); (true, false); (true, true) ])

let prop_work_stealing_matches_staged =
  QCheck.Test.make ~name:"work-stealing sweep reproduces staged stats"
    ~count:30 Support.arb_space (fun descr ->
      let plan = Plan.make_exn (Support.space_of descr) in
      Engine_staged.run plan = Engine_parallel.run ~domains:3 plan)

(* ---- Engine registry: name-keyed lookup behind Engine_intf.S ---- *)

let find_row spec =
  match Engine_registry.find spec with
  | Ok found -> found
  | Error msg -> Alcotest.failf "find %S: %s" spec msg

let find_exn spec = snd (find_row spec)

(* Resolved names key run records and archive groups, so every accepted
   spec's [E.name] is pinned. *)
let test_registry_resolves_all_names () =
  List.iter
    (fun (spec, expected_name) ->
      let (module E : Engine_intf.S) = find_exn spec in
      Alcotest.(check string) spec expected_name E.name)
    [
      ("interp-naive", "interp-naive");
      ("interp", "interp");
      ("vm", "vm");
      ("staged", "staged");
      ("parallel", "parallel-4");
      ("parallel:1", "parallel-1");
      ("parallel:7", "parallel-7");
      ("native", "native");
      ("native:1", "native-1");
      ("native:3", "native-3");
    ]

let test_registry_rejects_bad_specs () =
  let unknown spec =
    Printf.sprintf
      "unknown engine %s (try: interp-naive, interp, vm, staged, \
       parallel[:DOMAINS], native[:THREADS])"
      spec
  in
  List.iter
    (fun (spec, expected) ->
      match Engine_registry.find spec with
      | Ok (_, (module E : Engine_intf.S)) ->
        Alcotest.failf "%S resolved to %s" spec E.name
      | Error msg ->
        Alcotest.(check string) (Printf.sprintf "%S" spec) expected msg)
    [
      ("", unknown "");
      ("jit", unknown "jit");
      ("parallel-4", unknown "parallel-4");
      ("parallel:0", "parallel: need at least 1 domain (got 0)");
      ("parallel:-2", "parallel: need at least 1 domain (got -2)");
      ("parallel:x", "parallel: expected a domain count, got \"x\"");
      ("parallel:", "parallel: expected a domain count, got \"\"");
      ("parallel:2:3", "parallel: expected a domain count, got \"2:3\"");
      ("native:0", "native: need at least 1 thread (got 0)");
      ("native:x", "native: expected a thread count, got \"x\"");
      ("staged:2", "the staged engine takes no parameter (got \"2\")");
      ("interp:", "the interp engine takes no parameter (got \"\")");
      ( "interp-naive:3",
        "the interp-naive engine takes no parameter (got \"3\")" );
      ("vm:1:2", "the vm engine takes no parameter (got \"1:2\")");
    ]

let test_registry_engines_agree () =
  let sp = Support.triangle_space () in
  let expected = Support.survivor_count sp in
  List.iter
    (fun spec ->
      let (module E : Engine_intf.S) = find_exn spec in
      Alcotest.(check int)
        (E.name ^ " survivors via registry")
        expected
        (E.run (Engine_intf.Space sp)).Engine.survivors)
    [ "interp-naive"; "interp"; "vm"; "staged"; "parallel:3" ]

(* Exact GEMM counts, pinned as literals rather than derived from an
   engine (the spaces are too large to brute-force): every engine must
   reproduce them, statistics in full. *)
let test_registry_gemm_counts () =
  let stats_equal = Alcotest.testable Engine.pp_stats ( = ) in
  List.iter
    (fun (max_dim, max_threads, survivors, iterations) ->
      let sp = Support.gemm_space ~max_dim ~max_threads in
      let label = Printf.sprintf "GEMM-%d" max_dim in
      let staged = Engine_staged.run_space sp in
      Alcotest.(check int) (label ^ " survivors") survivors
        staged.Engine.survivors;
      Option.iter
        (fun n ->
          Alcotest.(check int) (label ^ " loop iterations") n
            staged.Engine.loop_iterations)
        iterations;
      List.iter
        (fun spec ->
          let (module E : Engine_intf.S) = find_exn spec in
          Alcotest.check stats_equal
            (Printf.sprintf "%s %s = staged" label spec)
            staged
            (E.run (Engine_intf.Space sp)))
        [ "interp"; "vm"; "parallel:4" ])
    [ (20, 96, 2080, None); (32, 128, 31712, Some 1_286_861) ]

let test_registry_catalog_capabilities () =
  let check spec ~propagate ~opaque ~resumable =
    let e, _ = find_row spec in
    Alcotest.(check bool)
      (spec ^ " propagate default")
      propagate e.Engine_registry.e_propagate_default;
    Alcotest.(check bool) (spec ^ " opaque") opaque e.Engine_registry.e_opaque;
    Alcotest.(check bool)
      (spec ^ " resumable")
      resumable e.Engine_registry.e_resumable
  in
  check "interp-naive" ~propagate:false ~opaque:true ~resumable:false;
  check "interp" ~propagate:true ~opaque:true ~resumable:false;
  check "vm" ~propagate:true ~opaque:true ~resumable:false;
  check "staged" ~propagate:true ~opaque:true ~resumable:false;
  check "parallel" ~propagate:true ~opaque:true ~resumable:true;
  check "parallel:8" ~propagate:true ~opaque:true ~resumable:true;
  check "native" ~propagate:true ~opaque:false ~resumable:false;
  check "native:2" ~propagate:true ~opaque:false ~resumable:false;
  (* names derives from the catalog, so listing and lookup can't drift *)
  Alcotest.(check (list string))
    "names = catalog specs"
    (List.map (fun e -> e.Engine_registry.e_spec) Engine_registry.catalog)
    Engine_registry.names

let test_registry_plan_target () =
  (* Every engine executes a handed-in plan as given — including
     interp-naive, whose naive cost model only applies to spaces it
     plans itself. *)
  let sp = Support.triangle_space () in
  let plan = Plan.make_exn sp in
  let expected = Engine_staged.run plan in
  List.iter
    (fun spec ->
      let (module E : Engine_intf.S) = find_exn spec in
      Alcotest.check Support.stats_testable
        (E.name ^ " plan target = staged")
        expected
        (E.run (Engine_intf.Plan plan)))
    [ "interp-naive"; "interp"; "vm"; "staged"; "parallel:2" ]

let test_registry_resumable_only_parallel () =
  List.iter
    (fun (spec, expected) ->
      let (module E : Engine_intf.S) = find_exn spec in
      Alcotest.(check bool) (spec ^ " resumable") expected
        (Option.is_some E.resumable))
    [
      ("interp-naive", false);
      ("interp", false);
      ("vm", false);
      ("staged", false);
      ("parallel:2", true);
    ]

let test_registry_resumable_runs () =
  let (module E : Engine_intf.S) = find_exn "parallel:3" in
  let resumable = Option.get E.resumable in
  let plan = Plan.make_exn (Support.triangle_space ()) in
  match resumable plan with
  | Engine_intf.Finished stats ->
    Alcotest.check Support.stats_testable "registry resumable = staged"
      (Engine_staged.run plan) stats
  | Engine_intf.Interrupted _ -> Alcotest.fail "spurious interruption"

let () =
  Alcotest.run "engines"
    [
      ( "agreement",
        [
          Alcotest.test_case "triangle space" `Quick test_triangle_agreement;
          Alcotest.test_case "mixed space" `Quick test_mixed_agreement;
          Alcotest.test_case "triangle exact count" `Quick test_triangle_exact;
          Alcotest.test_case "naive plan binds iterator deriveds" `Quick
            test_naive_binds_iterator_deriveds;
          Alcotest.test_case "deep nest" `Quick test_deep_nest;
          Alcotest.test_case "dynamic iterator algebra" `Quick
            test_dynamic_algebra_iterators;
          Alcotest.test_case "negative values" `Quick
            test_negative_values_everywhere;
          Alcotest.test_case "vm disassembly" `Quick test_vm_disassembly;
        ] );
      ( "statistics",
        [
          Alcotest.test_case "pruned counts" `Quick test_stats_pruned_counts;
          Alcotest.test_case "vm = staged stats" `Quick
            test_vm_staged_stats_identical;
          Alcotest.test_case "parallel = sequential" `Quick
            test_parallel_stats_match_sequential;
          Alcotest.test_case "work stealing = staged on GEMM" `Quick
            test_work_stealing_matches_staged_on_gemm;
          Alcotest.test_case "skewed gemm work shares" `Quick
            test_skewed_gemm_work_shares;
          Alcotest.test_case "more domains than trip count" `Quick
            test_parallel_more_domains_than_trip_count;
          Alcotest.test_case "firing depth-0 constraint deduped" `Quick
            test_parallel_firing_depth0_deduped;
          Alcotest.test_case "helper count" `Quick test_parallel_helper_count;
        ] );
      ( "callbacks",
        [
          Alcotest.test_case "on_hit bindings" `Quick test_on_hit_receives_bindings;
          Alcotest.test_case "on_hit matches brute force" `Quick
            test_on_hit_matches_brute_force;
        ] );
      ( "edges",
        [
          Alcotest.test_case "empty space" `Quick test_empty_space;
          Alcotest.test_case "empty iterator" `Quick test_empty_iterator;
          Alcotest.test_case "division by zero" `Quick
            test_division_by_zero_propagates;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "range shapes" `Quick test_accounting_range_shapes;
          Alcotest.test_case "overflowing trip count" `Quick
            test_accounting_overflowing_trip;
          Alcotest.test_case "values and dynamic" `Quick
            test_accounting_values_and_dyn;
          Alcotest.test_case "zero step" `Quick test_accounting_zero_step;
          Alcotest.test_case "undeclared closure read" `Quick
            test_undeclared_closure_read;
          Alcotest.test_case "generator reaches solved checks" `Quick
            test_generator_reaches_solved;
          Alcotest.test_case "generator reaches solved pairs" `Quick
            test_generator_reaches_pairs;
          Alcotest.test_case "solved pair edges" `Quick test_pair_edges;
          Alcotest.test_case "solved pair inner raises" `Quick
            test_pair_inner_raises;
          Alcotest.test_case "provenance of solves and windows" `Quick
            test_solved_provenance_shapes;
        ] );
      ( "registry",
        [
          Alcotest.test_case "resolves all names" `Quick
            test_registry_resolves_all_names;
          Alcotest.test_case "rejects bad specs" `Quick
            test_registry_rejects_bad_specs;
          Alcotest.test_case "engines agree via registry" `Quick
            test_registry_engines_agree;
          Alcotest.test_case "gemm exact counts" `Quick
            test_registry_gemm_counts;
          Alcotest.test_case "catalog capabilities" `Quick
            test_registry_catalog_capabilities;
          Alcotest.test_case "plan target runs as given" `Quick
            test_registry_plan_target;
          Alcotest.test_case "only parallel is resumable" `Quick
            test_registry_resumable_only_parallel;
          Alcotest.test_case "resumable closure runs" `Quick
            test_registry_resumable_runs;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_engines_agree;
            prop_window_paths_match_interp;
            prop_native_window_matches_interp;
            prop_vm_staged_stats;
            prop_chunks_partition;
            prop_work_stealing_matches_staged;
            prop_provenance_matches_interp;
            prop_hoisting_preserves_semantics;
            prop_constraint_subsets_monotone;
          ] );
    ]
