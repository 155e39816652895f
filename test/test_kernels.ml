open Beast_core
open Beast_gpu
open Beast_kernels

let scaled ?(max_dim = 16) ?(max_threads = 64) () =
  {
    Gemm.default_settings with
    Gemm.device = Device.scale ~max_dim ~max_threads Device.tesla_k40c;
  }

let test_gemm_shape () =
  let sp = Gemm.space ~settings:(scaled ()) () in
  Alcotest.(check int) "15 iterators (Fig. 11)" 15
    (List.length (Space.iterators sp));
  Alcotest.(check (list string)) "iterator names" Gemm.iterator_names
    (List.map (fun it -> it.Space.it_name) (Space.iterators sp));
  Alcotest.(check int) "12 constraints (Figs. 13-15)" 12
    (List.length (Space.constraints sp));
  Alcotest.(check (list string)) "constraint names"
    (List.map fst Gemm.constraint_names)
    (List.map (fun c -> c.Space.cn_name) (Space.constraints sp));
  (* 4 hard, 4 soft, 4 correctness. *)
  let count cls =
    List.length
      (List.filter (fun c -> c.Space.cn_class = cls) (Space.constraints sp))
  in
  Alcotest.(check int) "hard" 4 (count Space.Hard);
  Alcotest.(check int) "soft" 4 (count Space.Soft);
  Alcotest.(check int) "correctness" 4 (count Space.Correctness);
  match Space.validate sp with
  | Ok () -> ()
  | Error e -> Alcotest.failf "gemm space invalid: %a" Space.pp_error e

let test_gemm_engines_agree () =
  (* The full engine battery on a very small GEMM instance. *)
  let sp =
    Gemm.space ~settings:(scaled ()) ()
  in
  let plan = Plan.make_exn sp in
  let staged = Engine_staged.run plan in
  let vm = Engine_vm.run_plan plan in
  let interp = Engine_interp.run ~variant:`Hoisted sp in
  (* The `Naive variant enumerates the unconstrained cross product
     (~10^8 points even at this scale) - exactly the pathology the
     paper's hoisting removes - so it is exercised on the small spaces of
     test_engines instead. *)
  let par = Engine_parallel.run ~domains:3 plan in
  Alcotest.(check bool) "nonempty" true (staged.Engine.survivors > 0);
  Alcotest.(check int) "vm" staged.Engine.survivors vm.Engine.survivors;
  Alcotest.(check int) "interp" staged.Engine.survivors interp.Engine.survivors;
  Alcotest.(check int) "parallel" staged.Engine.survivors par.Engine.survivors

let test_gemm_c_roundtrip () =
  (* The GEMM space is fully expression-based, so the C generator must
     accept it; compile and compare with the staged engine. *)
  let sp = Gemm.space ~settings:(scaled ()) () in
  let plan = Plan.make_exn sp in
  let source = Codegen_c.generate_exn plan in
  let dir = Filename.temp_file "beast_gemm" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let c_file = Filename.concat dir "gemm.c" in
  let exe = Filename.concat dir "gemm" in
  let oc = open_out c_file in
  output_string oc source;
  close_out oc;
  let rc =
    Sys.command
      (Printf.sprintf "cc -O2 -std=c99 -o %s %s" (Filename.quote exe)
         (Filename.quote c_file))
  in
  Alcotest.(check int) "compiles" 0 rc;
  let ic = Unix.open_process_in (Filename.quote exe) in
  let survivors = ref (-1) in
  (try
     while true do
       match String.split_on_char ' ' (input_line ic) with
       | [ "survivors"; n ] -> survivors := int_of_string n
       | _ -> ()
     done
   with End_of_file -> ());
  ignore (Unix.close_process_in ic);
  let reference = Engine_staged.run plan in
  Alcotest.(check int) "C survivors" reference.Engine.survivors !survivors

let test_gemm_survivors_satisfy_figures () =
  (* Independently re-check every survivor against Figure 12/13/14/15
     formulas written directly in OCaml. *)
  let settings = scaled () in
  let d = settings.Gemm.device in
  let caps = Capability.lookup_exn d in
  let sp = Gemm.space ~settings () in
  let checked = ref 0 in
  let on_hit lookup =
    incr checked;
    let g n = Value.to_int (lookup n) in
    let dim_m = g "dim_m" and dim_n = g "dim_n" in
    let blk_m = g "blk_m" and blk_n = g "blk_n" and blk_k = g "blk_k" in
    let dim_vec = g "dim_vec" in
    let threads = dim_m * dim_n in
    let thr_m = blk_m / dim_m and thr_n = blk_n / dim_n in
    let regs_per_thread = thr_m * thr_n * 2 in
    (* double real *)
    let shmem = blk_k * (blk_m + blk_n) * 4 * 2 in
    assert (threads <= d.Device.max_threads_per_block);
    assert (regs_per_thread <= caps.Capability.max_regs_per_thread);
    assert (regs_per_thread * threads <= d.Device.max_regs_per_block);
    assert (shmem <= d.Device.max_shared_mem_per_block);
    assert (threads mod d.Device.warp_size = 0);
    let max_blocks_by_regs =
      min
        (d.Device.max_registers_per_multi_processor / (regs_per_thread * threads))
        caps.Capability.max_blocks_per_mp
    in
    assert (max_blocks_by_regs * threads >= 256);
    let max_blocks_by_shmem =
      min
        (d.Device.max_shmem_per_multi_processor / shmem)
        caps.Capability.max_blocks_per_mp
    in
    assert (max_blocks_by_shmem * threads >= 256);
    let loads = (thr_m + thr_n) * blk_k / dim_vec * threads in
    let fmas = thr_m * thr_n * blk_k * threads in
    assert (fmas >= 2 * loads);
    assert (g "dim_m_a" * g "dim_n_a" = threads);
    assert (g "dim_m_b" * g "dim_n_b" = threads);
    (* trans_a = trans_b = 0 *)
    assert (blk_m mod (g "dim_m_a" * dim_vec) = 0);
    assert (blk_k mod g "dim_n_a" = 0);
    assert (blk_k mod (g "dim_m_b" * dim_vec) = 0);
    assert (blk_n mod g "dim_n_b" = 0)
  in
  ignore (Engine_staged.run_space ~on_hit sp);
  Alcotest.(check bool) "checked some survivors" true (!checked > 100)

let test_gemm_known_good_config_survives () =
  (* A classic Kepler DGEMM shape must not be pruned. *)
  let settings =
    { Gemm.default_settings with
      Gemm.device = Device.scale ~max_dim:128 ~max_threads:256 Device.tesla_k40c }
  in
  let sp = Gemm.space ~settings () in
  (* Restrict the space to the single candidate via order-preserving
     constraint injection: simpler to check by pinning iterators. *)
  let pin name value =
    Space.constrain sp ("pin_" ^ name)
      Expr.Infix.(Expr.var name <>: Expr.int value)
  in
  pin "dim_m" 16;
  pin "dim_n" 16;
  pin "blk_m" 96;
  pin "blk_n" 96;
  pin "blk_k" 16;
  pin "dim_vec" 2;
  pin "vec_mul" 1;
  pin "dim_m_a" 16;
  pin "dim_n_a" 16;
  pin "dim_m_b" 8;
  pin "dim_n_b" 32;
  let s = Engine_staged.run_space sp in
  (* tex/l1/banks free: 16 variants of the pinned config survive. *)
  Alcotest.(check int) "pinned config survives" 16 s.Engine.survivors

let test_gemm_dim_vec_per_precision () =
  (* Figure 11's dim_vec depends on precision/arithmetic. *)
  let dim_vec_values precision arithmetic =
    let settings =
      {
        (scaled ()) with
        Gemm.precision; arithmetic;
      }
    in
    let sp = Gemm.space ~settings () in
    let plan = Plan.make_exn sp in
    let rec find steps =
      List.find_map
        (fun (step : Plan.step) ->
          match step with
          | Plan.Loop { l_var = "dim_vec"; l_iter; _ } -> Some l_iter
          | Plan.Loop { l_body; _ } -> find l_body
          | _ -> None)
        steps
    in
    match find plan.Plan.steps with
    | Some (Plan.CRange (a, b, c)) ->
      let ev e = Plan.eval_cexpr [||] e in
      let rec vals x = if x < ev b then x :: vals (x + ev c) else [] in
      vals (ev a)
    | _ -> Alcotest.fail "dim_vec loop not found"
  in
  Alcotest.(check (list int)) "double real" [ 1; 2 ]
    (dim_vec_values Device.Double Device.Real);
  Alcotest.(check (list int)) "double complex" [ 1 ]
    (dim_vec_values Device.Double Device.Complex);
  Alcotest.(check (list int)) "single real" [ 1; 4 ]
    (dim_vec_values Device.Single Device.Real);
  Alcotest.(check (list int)) "single complex" [ 1; 2 ]
    (dim_vec_values Device.Single Device.Complex)

let test_gemm_transpose_variants () =
  (* All four transposition cases build, plan and have survivors. *)
  List.iter
    (fun (ta, tb) ->
      let settings =
        { (scaled ()) with
          Gemm.trans_a = ta; trans_b = tb }
      in
      let s = Engine_staged.run_space (Gemm.space ~settings ()) in
      Alcotest.(check bool)
        (Printf.sprintf "trans %b %b survivors" ta tb)
        true
        (s.Engine.survivors > 0))
    [ (false, false); (true, false); (false, true); (true, true) ]

let test_gemm_divisor_opt_same_survivors () =
  (* The closure-iterator optimization must enumerate exactly the same
     surviving 15-tuples, with far fewer loop iterations. *)
  let settings = scaled () in
  let collect sp =
    let acc = ref [] in
    let on_hit lookup =
      acc :=
        List.map (fun n -> Value.to_int (lookup n)) Gemm.iterator_names :: !acc
    in
    let stats = Engine_staged.run_space ~on_hit sp in
    (List.sort compare !acc, stats)
  in
  let plain, plain_stats = collect (Gemm.space ~settings ()) in
  let opt, opt_stats = collect (Gemm.space_divisor_opt ~settings ()) in
  Alcotest.(check int) "same survivor count" (List.length plain)
    (List.length opt);
  Alcotest.(check bool) "same survivor tuples" true (plain = opt);
  (* The reduction factor grows with scale (3x at 32-dim, more beyond -
     the bench measures it); at this tiny test scale the 16 variant
     combinations below the read-grids dominate both spaces, so just
     require a strict reduction. *)
  Alcotest.(check bool) "strictly fewer loop iterations" true
    (opt_stats.Engine.loop_iterations < plain_stats.Engine.loop_iterations)

let test_gemm_divisor_opt_not_c_translatable () =
  let sp = Gemm.space_divisor_opt ~settings:(scaled ()) () in
  match Codegen_c.generate (Plan.make_exn sp) with
  | Error (Codegen_c.Unsupported _) -> ()
  | Ok _ -> Alcotest.fail "dynamic closures should not translate to C"

(* Each read-grid iterator declares its own side's block dimension: B's
   divisors read blk_n, so an order that opens dim_m_b before blk_n is
   refused rather than swept with blk_n unbound. *)
let test_gemm_divisor_opt_deps () =
  let sp = Gemm.space_divisor_opt ~settings:(scaled ()) () in
  let order =
    [ "dim_m"; "dim_n"; "blk_m"; "blk_k"; "dim_vec"; "dim_m_b"; "blk_n";
      "vec_mul"; "dim_m_a"; "tex_a"; "tex_b"; "shmem_l1"; "shmem_banks" ]
  in
  match Plan.make ~order sp with
  | Ok _ -> Alcotest.fail "dim_m_b opened before blk_n"
  | Error e ->
    Alcotest.(check string) "refusal"
      "unsupported: iterator dim_m_b (loop 6) depends on blk_n bound at \
       depth 7"
      (Format.asprintf "%a" Plan.pp_error e)

let test_gemm_dag_levels () =
  (* Figure 16's qualitative structure: dim_m/dim_n/blk_k at level 0,
     blk_m/blk_n at level 1. *)
  let sp = Gemm.space ~settings:(scaled ()) () in
  match Space.dag sp with
  | Error e -> Alcotest.failf "%a" Space.pp_error e
  | Ok dag ->
    Alcotest.(check int) "dim_m level 0" 0 (Dag.level dag "dim_m");
    Alcotest.(check int) "blk_k level 0" 0 (Dag.level dag "blk_k");
    Alcotest.(check int) "blk_m level 1" 1 (Dag.level dag "blk_m");
    Alcotest.(check bool) "threads_per_block above dims" true
      (Dag.level dag "threads_per_block" >= 1);
    Alcotest.(check bool) "low_occupancy deep" true
      (Dag.level dag "low_occupancy_regs" > Dag.level dag "regs_per_block")

(* ---- batched kernels ---- *)

let test_cholesky_space_valid () =
  let sp = Cholesky_batched.space () in
  match Space.validate sp with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%a" Space.pp_error e

let test_cholesky_survivors_valid () =
  let w = Cholesky_batched.default_workload in
  let sp = Cholesky_batched.space ~workload:w () in
  let on_hit lookup =
    let c = Cholesky_batched.decode lookup in
    assert (w.Cholesky_batched.n mod c.Cholesky_batched.blk = 0);
    assert (c.Cholesky_batched.blk <= c.Cholesky_batched.dim_x);
    assert (
      c.Cholesky_batched.dim_x * c.Cholesky_batched.batch_per_block mod 32 = 0)
  in
  let s = Engine_staged.run_space ~on_hit sp in
  Alcotest.(check bool) "has survivors" true (s.Engine.survivors > 0)

let test_cholesky_model_sane () =
  let w = Cholesky_batched.default_workload in
  let good =
    {
      Cholesky_batched.dim_x = 16;
      batch_per_block = 8;
      blk = 4;
      use_shmem = true;
      unroll = 4;
    }
  in
  let g = Cholesky_batched.gflops w good in
  let peak = Device.peak_gflops w.Cholesky_batched.device Device.Double in
  Alcotest.(check bool) "positive" true (g > 0.0);
  Alcotest.(check bool) "below ceiling" true (g <= 0.62 *. peak);
  Alcotest.(check bool) "beats the baseline" true
    (g > Cholesky_batched.baseline_gflops w)

let test_cholesky_flops () =
  (* n^3/3 + n^2/2 + n/6 at n=4: 21.33+8+0.67 = 30. *)
  Alcotest.(check (float 1e-6)) "potrf flops" 30.0
    (Cholesky_batched.flops_per_matrix 4)

let test_trsm_space_and_model () =
  let w = Trsm_batched.default_workload in
  let sp = Trsm_batched.space ~workload:w () in
  let s = Engine_staged.run_space sp in
  Alcotest.(check bool) "survivors" true (s.Engine.survivors > 0);
  let good =
    { Trsm_batched.dim_x = 16; batch_per_block = 8; use_shmem = true; unroll = 4 }
  in
  Alcotest.(check bool) "tuned beats baseline" true
    (Trsm_batched.gflops w good > Trsm_batched.baseline_gflops w)

let test_lu_space_and_model () =
  let w = Lu_batched.default_workload in
  let sp = Lu_batched.space ~workload:w () in
  (match Space.validate sp with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%a" Space.pp_error e);
  let seen_tree = ref false in
  let on_hit lookup =
    let c = Lu_batched.decode lookup in
    (* the pow2 correctness constraint *)
    if c.Lu_batched.pivot_tree then begin
      seen_tree := true;
      let x = c.Lu_batched.dim_x in
      assert (x land (x - 1) = 0)
    end;
    assert (w.Lu_batched.n mod c.Lu_batched.blk = 0)
  in
  let s = Engine_staged.run_space ~on_hit sp in
  Alcotest.(check bool) "survivors" true (s.Engine.survivors > 0);
  Alcotest.(check bool) "tree variants survive" true !seen_tree;
  let good =
    {
      Lu_batched.dim_x = 16;
      batch_per_block = 8;
      blk = 4;
      use_shmem = true;
      unroll = 4;
      pivot_tree = true;
    }
  in
  Alcotest.(check bool) "tuned beats baseline" true
    (Lu_batched.gflops w good > Lu_batched.baseline_gflops w)

let test_lu_flops () =
  (* getrf flops at n=4: 2*64/3 - 16/2 - 4/6 = 42.67 - 8 - 0.67 = 34. *)
  Alcotest.(check (float 1e-6)) "getrf flops" 34.0 (Lu_batched.flops_per_matrix 4)

let test_lu_pivot_tree_helps_latency () =
  (* At small dim_x the serial scan dominates; the tree reduction should
     win for the same configuration otherwise. *)
  let w = Lu_batched.default_workload in
  let base =
    {
      Lu_batched.dim_x = 16;
      batch_per_block = 8;
      blk = 4;
      use_shmem = true;
      unroll = 4;
      pivot_tree = false;
    }
  in
  let tree = { base with Lu_batched.pivot_tree = true } in
  Alcotest.(check bool) "tree at least as fast" true
    (Lu_batched.gflops w tree >= Lu_batched.gflops w base)

let test_als_space_and_model () =
  let w = Als.default_workload in
  let sp = Als.space ~workload:w () in
  (match Space.validate sp with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%a" Space.pp_error e);
  let on_hit lookup =
    let c = Als.decode lookup in
    assert (w.Als.rank mod c.Als.tile_f = 0);
    assert (c.Als.tile_f <= c.Als.dim_x);
    assert (c.Als.dim_x * c.Als.users_per_block mod 32 = 0)
  in
  let s = Engine_staged.run_space ~on_hit sp in
  Alcotest.(check bool) "survivors" true (s.Engine.survivors > 0)

let test_als_flops () =
  (* rank 2, 3 ratings: gram 2*3*3=18, solve 8/3, rhs 4*3*2=24. *)
  let w = { Als.default_workload with Als.rank = 2; avg_ratings = 3 } in
  Alcotest.(check (float 1e-6)) "flops" (18.0 +. (8.0 /. 3.0) +. 24.0)
    (Als.flops_per_user w)

let test_als_beats_cpu () =
  (* The paper's claim: significant speedup over CPU implementations. *)
  let w = Als.default_workload in
  let good =
    {
      Als.dim_x = 64;
      users_per_block = 4;
      tile_f = 8;
      gram_in_shmem = true;
      unroll = 4;
    }
  in
  let gpu = Als.gflops w good and cpu = Als.cpu_baseline_gflops w in
  Alcotest.(check bool) "at least 2x over CPU" true (gpu > 2.0 *. cpu)

let test_conv2d_space_and_model () =
  let w = Conv2d.default_workload in
  let sp = Conv2d.space ~workload:w () in
  (match Space.validate sp with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%a" Space.pp_error e);
  let d = w.Conv2d.device in
  let on_hit lookup =
    let c = Conv2d.decode lookup in
    assert (c.Conv2d.tile_h mod c.Conv2d.dim_y = 0);
    assert (c.Conv2d.tile_w mod c.Conv2d.dim_x = 0);
    assert (w.Conv2d.channels mod c.Conv2d.chans_per_iter = 0);
    assert (c.Conv2d.dim_x * c.Conv2d.dim_y mod 32 = 0);
    assert (
      Conv2d.shmem_per_block w c <= d.Beast_gpu.Device.max_shared_mem_per_block)
  in
  let s = Engine_staged.run_space ~on_hit sp in
  Alcotest.(check bool) "survivors" true (s.Engine.survivors > 0);
  (* The model scores staged full-warp tiles above tiny ragged ones. *)
  let good =
    {
      Conv2d.tile_h = 16; tile_w = 32; dim_x = 8; dim_y = 16;
      chans_per_iter = 4; stage_input = true; stage_weights = true;
      unroll_rs = true;
    }
  in
  let bad = { good with Conv2d.tile_h = 1; tile_w = 4; dim_x = 4; dim_y = 1;
              stage_input = false } in
  Alcotest.(check bool) "ordering" true
    (Conv2d.gflops w good > Conv2d.gflops w bad);
  Alcotest.(check bool) "below peak" true
    (Conv2d.gflops w good
    <= Beast_gpu.Device.peak_gflops d w.Conv2d.precision)

(* ---- prime FFT ---- *)

let no_env : Expr.lookup = fun _ -> raise Not_found

let test_fft_primes_iterator () =
  let env name = if name = "max_size" then Value.Int 30 else raise Not_found in
  let vs =
    Array.to_list (Array.map Value.to_int (Iter.materialize env Fft.primes_iter))
  in
  Alcotest.(check (list int)) "figure 3 primes"
    [ 1; 2; 3; 5; 7; 11; 13; 17; 19; 23; 29 ]
    vs

let test_fft_divisors () =
  let env name = if name = "conv_len" then Value.Int 12 else raise Not_found in
  let vs =
    Array.to_list
      (Array.map Value.to_int (Iter.materialize env (Fft.divisors_iter ~of_:"conv_len")))
  in
  Alcotest.(check (list int)) "divisors of 12" [ 1; 2; 3; 4; 6; 12 ] vs;
  ignore no_env

let test_fft_space () =
  let sp = Fft.space ~max_size:32 () in
  let seen = ref [] in
  let on_hit lookup =
    let c = Fft.decode lookup in
    seen := c :: !seen;
    (* Survivors obey the strategy/radix coupling. *)
    if c.Fft.strategy = 0 then assert (c.Fft.radix = 1)
    else begin
      assert (c.Fft.radix > 1 && c.Fft.radix < c.Fft.size - 1);
      assert ((c.Fft.size - 1) mod c.Fft.radix = 0)
    end
  in
  let s = Engine_staged.run_space ~on_hit sp in
  Alcotest.(check bool) "survivors" true (s.Engine.survivors > 0);
  Alcotest.(check int) "callback saw all" s.Engine.survivors (List.length !seen);
  (* Every prime size >= 3 up to 32 appears. *)
  let sizes = List.sort_uniq compare (List.map (fun c -> c.Fft.size) !seen) in
  Alcotest.(check (list int)) "prime sizes" [ 3; 5; 7; 11; 13; 17; 19; 23; 29; 31 ]
    sizes

let test_fft_cost_model () =
  (* For a prime with smooth p-1, the direct strategy should win
     somewhere; the padded strategy must at least be finite. *)
  let direct =
    Fft.modeled_time_us
      { Fft.size = 13; strategy = 1; radix = 4; twiddle_in_shmem = true }
  in
  let padded =
    Fft.modeled_time_us
      { Fft.size = 13; strategy = 0; radix = 1; twiddle_in_shmem = true }
  in
  Alcotest.(check bool) "both positive" true (direct > 0.0 && padded > 0.0);
  Alcotest.(check bool) "direct beats padding for smooth sizes" true
    (direct < padded)

let () =
  Alcotest.run "kernels"
    [
      ( "gemm space",
        [
          Alcotest.test_case "shape (Figs. 10-15)" `Quick test_gemm_shape;
          Alcotest.test_case "engines agree" `Quick test_gemm_engines_agree;
          Alcotest.test_case "C round-trip" `Quick test_gemm_c_roundtrip;
          Alcotest.test_case "survivors satisfy figures" `Quick
            test_gemm_survivors_satisfy_figures;
          Alcotest.test_case "known-good config survives" `Quick
            test_gemm_known_good_config_survives;
          Alcotest.test_case "dim_vec per precision" `Quick
            test_gemm_dim_vec_per_precision;
          Alcotest.test_case "transpose variants" `Quick
            test_gemm_transpose_variants;
          Alcotest.test_case "divisor-opt same survivors" `Quick
            test_gemm_divisor_opt_same_survivors;
          Alcotest.test_case "divisor-opt not C-translatable" `Quick
            test_gemm_divisor_opt_not_c_translatable;
          Alcotest.test_case "divisor-opt deps per side" `Quick
            test_gemm_divisor_opt_deps;
          Alcotest.test_case "DAG levels (Fig. 16)" `Quick test_gemm_dag_levels;
        ] );
      ( "batched",
        [
          Alcotest.test_case "cholesky space valid" `Quick
            test_cholesky_space_valid;
          Alcotest.test_case "cholesky survivors valid" `Quick
            test_cholesky_survivors_valid;
          Alcotest.test_case "cholesky model sane" `Quick test_cholesky_model_sane;
          Alcotest.test_case "potrf flop count" `Quick test_cholesky_flops;
          Alcotest.test_case "trsm space and model" `Quick test_trsm_space_and_model;
          Alcotest.test_case "lu space and model" `Quick test_lu_space_and_model;
          Alcotest.test_case "getrf flop count" `Quick test_lu_flops;
          Alcotest.test_case "lu pivot tree" `Quick test_lu_pivot_tree_helps_latency;
          Alcotest.test_case "als space and model" `Quick test_als_space_and_model;
          Alcotest.test_case "als flop count" `Quick test_als_flops;
          Alcotest.test_case "als beats cpu" `Quick test_als_beats_cpu;
          Alcotest.test_case "conv2d space and model" `Quick
            test_conv2d_space_and_model;
        ] );
      ( "prime fft",
        [
          Alcotest.test_case "primes iterator (Fig. 3)" `Quick
            test_fft_primes_iterator;
          Alcotest.test_case "divisors iterator" `Quick test_fft_divisors;
          Alcotest.test_case "space" `Quick test_fft_space;
          Alcotest.test_case "cost model" `Quick test_fft_cost_model;
        ] );
    ]
