(* The native engine end to end: compile-cache behaviour, subprocess
   stats parsing (strict grammar, hostile inputs), byte-identity with
   the staged engine, on_hit round-trips, graceful degradation and
   crash hygiene (no stale temp binaries after an aborted run). *)

open Beast_core

let full_stats_equal a b =
  a.Engine.survivors = b.Engine.survivors
  && a.Engine.loop_iterations = b.Engine.loop_iterations
  && a.Engine.pruned = b.Engine.pruned

let check_stats msg a b =
  Alcotest.(check bool) msg true (full_stats_equal a b)

let in_workdir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "beast_test_native_%d_%d" (Unix.getpid ()) (Random.int 1_000_000))
  in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun f -> Sys.remove (Filename.concat dir f))
          (Sys.readdir dir);
        Unix.rmdir dir
      end)
    (fun () -> f dir)

let small_gemm () =
  let device =
    Beast_gpu.Device.scale ~max_dim:16 ~max_threads:64
      Beast_gpu.Device.tesla_k40c
  in
  let settings = { Beast_kernels.Gemm.default_settings with device } in
  Beast_kernels.Gemm.space ~settings ()

(* ------------------------------------------------------------------ *)
(* Byte-identity with the staged engine                                *)
(* ------------------------------------------------------------------ *)

let test_matches_staged_triangle () =
  in_workdir (fun workdir ->
      let plan = Plan.make_exn (Support.triangle_space ()) in
      let expected = Engine_staged.run plan in
      check_stats "threads=1" expected (Engine_native.run ~workdir plan);
      check_stats "threads=3" expected
        (Engine_native.run ~workdir ~threads:3 plan))

let test_matches_staged_gemm () =
  in_workdir (fun workdir ->
      let plan = Plan.make_exn (small_gemm ()) in
      let expected = Engine_staged.run plan in
      check_stats "threads=1" expected (Engine_native.run ~workdir plan);
      check_stats "threads=4" expected
        (Engine_native.run ~workdir ~threads:4 plan))

let test_depth0_constraint_threads () =
  (* A constraint evaluable before the first loop executes in every
     pthread slice but must be counted once — the slice-0 convention.
     With the space disabled it fires in all 3 slices; pruned must still
     read 1, survivors 0. *)
  let open Expr.Infix in
  let sp = Space.create ~name:"depth0" () in
  Space.setting_i sp "enabled" 0;
  Space.iterator sp "x" (Iter.range_i 0 50);
  Space.constrain sp "disabled_space" (Expr.var "enabled" =: Expr.int 0);
  in_workdir (fun workdir ->
      let plan = Plan.make_exn sp in
      let expected = Engine_staged.run plan in
      check_stats "threads=3" expected
        (Engine_native.run ~workdir ~threads:3 plan))

let test_loop_free_plan_threads () =
  (* No loops at all: the single point belongs to slice 0 alone, so a
     multithreaded binary must not count it once per thread. *)
  let sp = Space.create ~name:"pointlike" () in
  Space.setting_i sp "n" 3;
  in_workdir (fun workdir ->
      let plan = Plan.make_exn sp in
      let expected = Engine_staged.run plan in
      check_stats "threads=4" expected
        (Engine_native.run ~workdir ~threads:4 plan))

let test_sharded_matches_unsharded () =
  (* chunk_outer (the CLI's --shard) composed with the native engine:
     merged shard stats must reproduce the unsharded run exactly
     (depth-0 dedup is Stats_io.merge's job; these plans have none). *)
  in_workdir (fun workdir ->
      let plan = Plan.make_exn (Support.triangle_space ()) in
      let whole = Engine_native.run ~workdir plan in
      let parts =
        List.init 3 (fun index ->
            Engine_native.run ~workdir (Plan.chunk_outer plan ~index ~of_:3))
      in
      let merged =
        List.fold_left Engine.merge (List.hd parts) (List.tl parts)
      in
      check_stats "3 shards merge to the whole" whole merged)

(* The generated C solves a loop's first [m * x != t] check once per
   entry. In [walk], [y] steps down by 2 and its coefficient [x - 3] is
   0 at [x = 3], [z]'s is a literal 0, so entries take every branch of
   the solve; in [outer], the solved loop is the one the threads slice.
   The stats files must be the interpreter's, byte for byte. *)
let test_solved_checks_match_interp () =
  let real_cc = Engine_native.cc () in
  if Sys.command (Printf.sprintf "command -v %s >/dev/null 2>&1" real_cc) <> 0
  then Alcotest.skip ();
  let open Expr.Infix in
  let x = Expr.var "x" and y = Expr.var "y" and z = Expr.var "z" in
  let down ~step start stop =
    Iter.range ~step:(Expr.int step) (Expr.int start) (Expr.int stop)
  in
  let walk = Space.create ~name:"walk" () in
  Space.iterator walk "x" (Iter.range_i 0 7);
  Space.iterator walk "y" (down ~step:(-2) 11 (-12));
  Space.iterator walk "z" (down ~step:(-3) 5 (-5));
  Space.constrain walk "y_fits"
    (((x -: Expr.int 3) *: y) <>: ((x *: x) -: Expr.int 9));
  Space.constrain walk "z_fits" ((Expr.int 0 *: z) <>: (x -: Expr.int 3));
  let outer = Space.create ~name:"outer" () in
  Space.iterator outer "x" (down ~step:(-3) 20 (-20));
  Space.iterator outer "y" (Iter.range_i 0 4);
  Space.constrain outer "x_fits" ((x *: Expr.int (-2)) <>: Expr.int 2);
  let bytes plan stats = Stats_io.to_json (Stats_io.of_stats ~plan stats) in
  in_workdir (fun workdir ->
      List.iter
        (fun (sp, solved) ->
          let plan = Plan.make_exn sp in
          let rec count steps =
            List.fold_left
              (fun n (step : Plan.step) ->
                match step with
                | Loop { l_slot; l_iter; l_body; _ } ->
                  let here = Plan.solved_check ~slot:l_slot l_iter l_body in
                  n + Bool.to_int (Option.is_some here) + count l_body
                | Derive _ | Check _ | Static_prune _ | Yield -> n)
              0 steps
          in
          Alcotest.(check int) (Space.name sp ^ " solved checks") solved
            (count plan.Plan.steps);
          let expected = bytes plan (Engine_interp.run_plan plan) in
          List.iter
            (fun threads ->
              Alcotest.(check string)
                (Printf.sprintf "%s, %d thread(s)" (Space.name sp) threads)
                expected
                (bytes plan (Engine_native.run ~workdir ~threads plan)))
            [ 1; 3 ])
        [ (walk, 2); (outer, 1) ])

(* ------------------------------------------------------------------ *)
(* on_hit round-trip                                                   *)
(* ------------------------------------------------------------------ *)

let test_on_hit_roundtrip () =
  (* Single-threaded hit order is the enumeration order, so the native
     replay must match the staged callback sequence exactly — including
     derived variables and settings resolved through the lookup. *)
  in_workdir (fun workdir ->
      let plan = Plan.make_exn (Support.triangle_space ()) in
      let observe acc lookup =
        acc :=
          List.map Value.to_int [ lookup "x"; lookup "y"; lookup "s"; lookup "n" ]
          :: !acc
      in
      let staged_hits = ref [] in
      ignore (Engine_staged.run ~on_hit:(observe staged_hits) plan);
      let native_hits = ref [] in
      ignore (Engine_native.run ~on_hit:(observe native_hits) ~workdir plan);
      Alcotest.(check (list (list int)))
        "hit order and contents" (List.rev !staged_hits)
        (List.rev !native_hits))

(* ------------------------------------------------------------------ *)
(* The stats parser on hostile input                                   *)
(* ------------------------------------------------------------------ *)

let parse ?on_hit plan lines =
  Engine_native.stats_of_lines ?on_hit plan (List.to_seq lines)

let check_rejects msg plan lines fragment =
  match parse plan lines with
  | Ok _ -> Alcotest.failf "%s: garbled output parsed as statistics" msg
  | Error e ->
    let contains s sub =
      let n = String.length sub in
      let rec go i =
        i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
      in
      go 0
    in
    Alcotest.(check bool)
      (Printf.sprintf "%s: diagnostic %S mentions %S" msg e fragment)
      true (contains e fragment)

let test_parser_accepts_valid () =
  let plan = Plan.make_exn (Support.triangle_space ()) in
  let expected = Engine_staged.run plan in
  match
    parse plan
      [
        Printf.sprintf "survivors %d" expected.Engine.survivors;
        Printf.sprintf "iterations %d" expected.Engine.loop_iterations;
        (let n, _, k = expected.Engine.pruned.(0) in
         Printf.sprintf "pruned %s %d" (Codegen_c.sanitize n) k);
        (let n, _, k = expected.Engine.pruned.(1) in
         Printf.sprintf "pruned %s %d" (Codegen_c.sanitize n) k);
      ]
  with
  | Ok stats -> check_stats "well-formed output parses" expected stats
  | Error e -> Alcotest.failf "valid output rejected: %s" e

let test_parser_rejects_malformed () =
  let plan = Plan.make_exn (Support.triangle_space ()) in
  check_rejects "truncated: empty" plan [] "no survivors line";
  check_rejects "truncated: missing pruned" plan
    [ "survivors 4"; "iterations 10" ]
    "pruned lines missing";
  check_rejects "truncated: missing iterations" plan [ "survivors 4" ]
    "no iterations line";
  check_rejects "unknown line" plan
    [ "garbage in the stream"; "survivors 4" ]
    "unrecognized line";
  check_rejects "non-integer survivors" plan [ "survivors lots" ]
    "not an integer";
  check_rejects "duplicate survivors" plan
    [ "survivors 4"; "survivors 4" ]
    "duplicate survivors";
  check_rejects "summary out of order" plan [ "iterations 10" ]
    "iterations before survivors";
  check_rejects "wrong constraint name" plan
    [ "survivors 4"; "iterations 10"; "pruned nonsense 1" ]
    "expected constraint";
  check_rejects "interleaved hit line" plan
    [ "hit 1 2 hit 3"; "survivors 1" ]
    "hit line has";
  check_rejects "truncated hit line" plan [ "hit 1"; "survivors 1" ]
    "hit line has";
  check_rejects "hit after summary" plan
    [ "survivors 1"; "hit 1 2" ]
    "after the summary";
  check_rejects "extra pruned line" plan
    [
      "survivors 0"; "iterations 0"; "pruned odd_sum 0"; "pruned big_x 0";
      "pruned big_x 0";
    ]
    "extra pruned"

let test_parser_hit_count_mismatch () =
  let plan = Plan.make_exn (Support.triangle_space ()) in
  let lines =
    [
      "hit 0 1"; "survivors 3"; "iterations 10"; "pruned odd_sum 2";
      "pruned big_x 1";
    ]
  in
  match parse ~on_hit:(fun _ -> ()) plan lines with
  | Ok _ -> Alcotest.fail "survivor/hit mismatch parsed as statistics"
  | Error e ->
    Alcotest.(check bool)
      (Printf.sprintf "diagnostic %S counts the hits" e)
      true
      (String.length e > 0)

(* ------------------------------------------------------------------ *)
(* Degradation, caching and crash hygiene                              *)
(* ------------------------------------------------------------------ *)

(* A range step that evaluates to 0 is the OCaml engines' one-line
   error, on one thread or several. *)
let test_zero_step_names_the_loop () =
  let sp = Space.create ~name:"zero_step" () in
  Space.iterator sp "x" (Iter.range_i 0 3);
  Space.iterator sp "y"
    (Iter.range ~step:Expr.Infix.(Expr.var "x" -: Expr.var "x") (Expr.int 0)
       (Expr.int 5));
  let plan = Plan.make_exn sp in
  in_workdir (fun workdir ->
      List.iter
        (fun threads ->
          match Engine_native.run ~workdir ~threads plan with
          | _ -> Alcotest.failf "zero step ran on %d thread(s)" threads
          | exception Engine_native.Error msg ->
            Alcotest.(check string)
              (Printf.sprintf "%d thread(s)" threads)
              "y: zero range step" msg)
        [ 1; 3 ]);
  match parse plan [ "zero-step 1" ] with
  | Ok _ -> Alcotest.fail "zero-step line parsed as statistics"
  | Error e -> Alcotest.(check string) "parser" "y: zero range step" e

(* A compiler wrapper links a shim that makes every other
   pthread_create fail: the slices of the threads that could not be
   created must run inline, not vanish from the statistics. *)
let test_failed_thread_creation_runs_inline () =
  let real_cc = Engine_native.cc () in
  if Sys.command (Printf.sprintf "command -v %s >/dev/null 2>&1" real_cc) <> 0
  then Alcotest.skip ();
  in_workdir (fun workdir ->
      Unix.mkdir workdir 0o755;
      let write name text =
        let path = Filename.concat workdir name in
        Out_channel.with_open_text path (fun oc ->
            Out_channel.output_string oc text);
        path
      in
      let shim =
        write "shim.c"
          "#include <errno.h>\n\
           #include <pthread.h>\n\
           int __real_pthread_create(pthread_t *, const pthread_attr_t *,\n\
          \                          void *(*)(void *), void *);\n\
           static int calls;\n\
           int __wrap_pthread_create(pthread_t *t, const pthread_attr_t *a,\n\
          \                          void *(*f)(void *), void *arg) {\n\
          \  if (calls++ % 2 == 1) return EAGAIN;\n\
          \  return __real_pthread_create(t, a, f, arg);\n\
           }\n"
      in
      let wrapper =
        write "cc-shim.sh"
          (Printf.sprintf
             "#!/bin/sh\nexec %s \"$@\" %s -Wl,--wrap=pthread_create\n"
             real_cc (Filename.quote shim))
      in
      Unix.chmod wrapper 0o755;
      let plan = Plan.make_exn (small_gemm ()) in
      let expected = Engine_staged.run plan in
      Unix.putenv "BEAST_CC" wrapper;
      Fun.protect
        ~finally:(fun () -> Unix.putenv "BEAST_CC" "")
        (fun () ->
          check_stats "native:4 with failing pthread_create = staged" expected
            (Engine_native.run ~workdir ~threads:4 plan)))

let test_unsupported_is_one_line_error () =
  in_workdir (fun workdir ->
      match Engine_native.run ~workdir (Plan.make_exn (Support.mixed_space ()))
      with
      | _ -> Alcotest.fail "closure iterators accepted by the native engine"
      | exception Engine_native.Error msg ->
        Alcotest.(check bool) "message is one actionable line" true
          (not (String.contains msg '\n')
          && String.length msg > 0))

let test_missing_compiler_diagnostic () =
  in_workdir (fun workdir ->
      Unix.putenv "BEAST_CC" "/nonexistent/compiler-xyz";
      Fun.protect
        ~finally:(fun () -> Unix.putenv "BEAST_CC" "")
        (fun () ->
          match
            Engine_native.run ~workdir (Plan.make_exn (Support.triangle_space ()))
          with
          | _ -> Alcotest.fail "missing compiler went unnoticed"
          | exception Engine_native.Error msg ->
            Alcotest.(check bool)
              (Printf.sprintf "diagnostic %S names the compiler" msg)
              true
              (not (String.contains msg '\n'))))

let test_compile_cache_hit () =
  in_workdir (fun workdir ->
      let plan = Plan.make_exn (Support.triangle_space ()) in
      let exe1 = Engine_native.compile ~workdir plan in
      let mtime = (Unix.stat exe1).Unix.st_mtime in
      (* A second compile of the same plan must short-circuit on the
         content hash: same path, binary untouched. *)
      let exe2 = Engine_native.compile ~workdir plan in
      Alcotest.(check string) "same cached binary" exe1 exe2;
      Alcotest.(check bool) "binary not rebuilt" true
        ((Unix.stat exe2).Unix.st_mtime = mtime);
      (* Even with the compiler broken the cache hit must succeed —
         proof no compiler is invoked. *)
      Unix.putenv "BEAST_CC" "/nonexistent/compiler-xyz";
      Fun.protect
        ~finally:(fun () -> Unix.putenv "BEAST_CC" "")
        (fun () ->
          (* A different compiler changes the cache key, so pre-seed the
             lookup by restoring: the key includes $BEAST_CC. *)
          Unix.putenv "BEAST_CC" "";
          let exe3 = Engine_native.compile ~workdir plan in
          Alcotest.(check string) "cache hit without compiler" exe1 exe3))

let no_temp_files workdir =
  Array.for_all
    (fun f ->
      let contains s sub =
        let n = String.length sub in
        let rec go i =
          i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
        in
        go 0
      in
      not (contains f ".tmp"))
    (Sys.readdir workdir)

let test_kill_mid_run_leaves_no_temps () =
  in_workdir (fun workdir ->
      let plan = Plan.make_exn (Support.triangle_space ()) in
      let hits = ref 0 in
      let abort _ =
        incr hits;
        if !hits = 3 then raise Exit
      in
      (match Engine_native.run ~on_hit:abort ~workdir plan with
      | _ -> Alcotest.fail "aborting on_hit did not propagate"
      | exception Exit -> ());
      Alcotest.(check bool) "exactly 3 hits before the abort" true (!hits = 3);
      Alcotest.(check bool) "no stale temp files in the workdir" true
        (no_temp_files workdir);
      (* The cache must still be healthy: the next run reuses the binary
         and completes. *)
      let expected = Engine_staged.run plan in
      check_stats "post-abort run succeeds" expected
        (Engine_native.run ~workdir plan))

(* ------------------------------------------------------------------ *)
(* Registry integration                                                *)
(* ------------------------------------------------------------------ *)

let test_registry_specs () =
  (match Engine_registry.find "native" with
  | Ok (e, (module E : Engine_intf.S)) ->
    Alcotest.(check string) "bare spec" "native" E.name;
    Alcotest.(check bool)
      "catalog: native cannot evaluate opaque closures" false
      e.Engine_registry.e_opaque
  | Error e -> Alcotest.failf "native spec rejected: %s" e);
  (match Engine_registry.find "native:3" with
  | Ok (_, (module E : Engine_intf.S)) ->
    Alcotest.(check string) "parameterized spec" "native-3" E.name
  | Error e -> Alcotest.failf "native:3 rejected: %s" e);
  (match Engine_registry.find "native:0" with
  | Ok _ -> Alcotest.fail "native:0 accepted"
  | Error _ -> ());
  (match Engine_registry.find "native:x" with
  | Ok _ -> Alcotest.fail "native:x accepted"
  | Error _ -> ());
  Alcotest.(check bool) "catalog lists the native spec" true
    (List.mem "native[:THREADS]" Engine_registry.names);
  Alcotest.(check bool) "names derive from the catalog" true
    (Engine_registry.names
    = List.map (fun e -> e.Engine_registry.e_spec) Engine_registry.catalog)

let test_registry_run () =
  in_workdir (fun _ ->
      match Engine_registry.find "native" with
      | Error e -> Alcotest.failf "native spec rejected: %s" e
      | Ok (_, (module E : Engine_intf.S)) ->
        let sp = Support.triangle_space () in
        let expected = Engine_staged.run_space sp in
        check_stats "registry-resolved native run" expected
          (E.run (Engine_intf.Space sp)))

let () =
  Random.self_init ();
  Alcotest.run "native"
    [
      ( "identity",
        [
          Alcotest.test_case "triangle matches staged" `Quick
            test_matches_staged_triangle;
          Alcotest.test_case "gemm matches staged" `Quick
            test_matches_staged_gemm;
          Alcotest.test_case "depth-0 constraint, 3 threads" `Quick
            test_depth0_constraint_threads;
          Alcotest.test_case "loop-free plan, 4 threads" `Quick
            test_loop_free_plan_threads;
          Alcotest.test_case "3-way shard merge" `Quick
            test_sharded_matches_unsharded;
          Alcotest.test_case "on_hit round-trip" `Quick test_on_hit_roundtrip;
          Alcotest.test_case "solved checks match interp" `Quick
            test_solved_checks_match_interp;
        ] );
      ( "parser",
        [
          Alcotest.test_case "accepts valid output" `Quick
            test_parser_accepts_valid;
          Alcotest.test_case "rejects malformed output" `Quick
            test_parser_rejects_malformed;
          Alcotest.test_case "rejects survivor/hit mismatch" `Quick
            test_parser_hit_count_mismatch;
        ] );
      ( "hygiene",
        [
          Alcotest.test_case "unsupported plan is a one-line error" `Quick
            test_unsupported_is_one_line_error;
          Alcotest.test_case "missing compiler diagnostic" `Quick
            test_missing_compiler_diagnostic;
          Alcotest.test_case "compile cache hit" `Quick test_compile_cache_hit;
          Alcotest.test_case "kill mid-run leaves no temps" `Quick
            test_kill_mid_run_leaves_no_temps;
          Alcotest.test_case "zero step names the loop" `Quick
            test_zero_step_names_the_loop;
          Alcotest.test_case "failed thread creation runs inline" `Quick
            test_failed_thread_creation_runs_inline;
        ] );
      ( "registry",
        [
          Alcotest.test_case "spec parsing" `Quick test_registry_specs;
          Alcotest.test_case "resolved module runs" `Quick test_registry_run;
        ] );
    ]
