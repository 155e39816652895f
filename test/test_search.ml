open Beast_core
open Beast_gpu
open Beast_kernels
open Beast_autotune

let rng () = Random.State.make [| 7; 11; 13 |]

let feasible plan =
  match Feasible.build plan with
  | Ok f -> f
  | Error msg -> Alcotest.fail ("Feasible.build: " ^ msg)

let simple_plan () =
  let open Expr.Infix in
  let sp = Space.create ~name:"simple" () in
  Space.iterator sp "x" (Iter.range_i 0 30);
  Space.iterator sp "y" (Iter.range (Expr.int 0) (Expr.var "x" +: Expr.int 1));
  Space.constrain sp "odd" ((Expr.var "x" +: Expr.var "y") %: Expr.int 2 <>: Expr.int 0);
  Plan.make_exn sp

let gemm_plan () =
  let device = Device.scale ~max_dim:32 ~max_threads:128 Device.tesla_k40c in
  let settings = { Gemm.default_settings with Gemm.device } in
  (settings, Plan.make_exn (Gemm.space ~settings ()))

let test_sample_valid () =
  let feas = feasible (simple_plan ()) in
  let r = rng () in
  for _ = 1 to 100 do
    match Feasible.sample ~rng:r feas with
    | None -> Alcotest.fail "dense space must sample"
    | Some p ->
      let x = List.assoc "x" p and y = List.assoc "y" p in
      Alcotest.(check bool) "y <= x" true (y <= x);
      Alcotest.(check bool) "even sum" true ((x + y) mod 2 = 0)
  done

let test_sample_empty_space () =
  let sp = Space.create () in
  Space.iterator sp "x" (Iter.range_i 0 10);
  Space.constrain sp "none" (Expr.bool true);
  let plan = Plan.make_exn sp in
  let feas = feasible plan in
  let objective _ = 0.0 in
  Alcotest.(check bool) "no sample" true
    (Feasible.sample ~rng:(rng ()) feas = None);
  Alcotest.(check bool) "random search finds nothing" true
    (Search.random_search ~rng:(rng ()) ~budget:10 ~objective plan feas
    = None);
  Alcotest.(check bool) "hill climb finds nothing" true
    (Search.hill_climb ~rng:(rng ()) ~objective plan feas = None)

let test_sample_sparse_gemm () =
  (* The motivating case: GEMM's divisor constraints make uniform draws
     from the raw cross product hopeless; the diagram never misses. *)
  let feas = feasible (snd (gemm_plan ())) in
  let r = rng () in
  let ok = ref 0 in
  for _ = 1 to 20 do
    match Feasible.sample ~rng:r feas with
    | Some _ -> incr ok
    | None -> ()
  done;
  Alcotest.(check int) "every draw succeeds" 20 !ok

let test_random_search_finds_good () =
  let plan = simple_plan () in
  let objective lookup =
    float_of_int (Value.to_int (lookup "x") + Value.to_int (lookup "y"))
  in
  let feas = feasible plan in
  Alcotest.(check bool) "negative budget draws nothing" true
    (Search.random_search ~rng:(rng ()) ~budget:(-1) ~objective plan feas
    = None);
  match Search.random_search ~rng:(rng ()) ~budget:300 ~objective plan feas with
  | None -> Alcotest.fail "search failed"
  | Some c ->
    (* optimum is x=29, y=29 (even sum), score 58. *)
    Alcotest.(check bool) "near optimum" true (c.Tuner.score >= 50.0)

let test_hill_climb_improves () =
  let settings, plan = gemm_plan () in
  let objective = Gemm.objective settings in
  Search.reset_counters ();
  match
    Search.hill_climb ~rng:(rng ()) ~restarts:4 ~steps:60 ~objective plan
      (feasible plan)
  with
  | None -> Alcotest.fail "no start"
  | Some c ->
    Alcotest.(check bool) "positive score" true (c.Tuner.score > 0.0);
    Alcotest.(check bool) "evaluations counted" true (Search.evaluations () > 0);
    Alcotest.(check int) "bindings cover iterators" 15
      (List.length c.Tuner.bindings)

let test_search_candidates_satisfy_constraints () =
  let settings, plan = gemm_plan () in
  let feas = feasible plan in
  let objective = Gemm.objective settings in
  let check what = function
    | None -> Alcotest.fail (what ^ " failed")
    | Some c ->
      let geti n = Value.to_int (List.assoc n c.Tuner.bindings) in
      let threads = geti "dim_m" * geti "dim_n" in
      Alcotest.(check int) (what ^ ": a-grid reshape holds")
        threads
        (geti "dim_m_a" * geti "dim_n_a");
      Alcotest.(check int) (what ^ ": full warps") 0 (threads mod 32)
  in
  check "random search"
    (Search.random_search ~rng:(rng ()) ~budget:20 ~objective plan feas);
  check "hill climb"
    (Search.hill_climb ~rng:(rng ()) ~restarts:2 ~steps:30 ~objective plan
       feas)

(* A range whose naive trip count (stop - start + step - 1) / step
   overflows: the space holds exactly x = 0 and x = 2^61. *)
let test_huge_step () =
  let sp = Space.create ~name:"huge_step" () in
  Space.iterator sp "x"
    (Iter.range ~step:(Expr.int (1 lsl 61)) (Expr.int 0) (Expr.int max_int));
  let plan = Plan.make_exn sp in
  let feas = feasible plan in
  Alcotest.(check int) "two points" 2 (Feasible.count feas);
  let objective lookup = float_of_int (Value.to_int (lookup "x") lsr 58) in
  let check what = function
    | None -> Alcotest.fail (what ^ ": no point")
    | Some c ->
      let x = Value.to_int (List.assoc "x" c.Tuner.bindings) in
      Alcotest.(check bool) (what ^ ": x in {0, 2^61}") true
        (x = 0 || x = 1 lsl 61)
  in
  check "random search"
    (Search.random_search ~rng:(rng ()) ~budget:5 ~objective plan feas);
  check "hill climb"
    (Search.hill_climb ~rng:(rng ()) ~restarts:2 ~steps:10 ~objective plan
       feas)

(* Draws are uniform over the survivors, not over each layer's values:
   x in [0, 6), y in [0, x], x + y even holds 12 points, 1 to 3 per x. *)
let test_random_search_uniform () =
  let open Expr.Infix in
  let sp = Space.create ~name:"uniform" () in
  Space.iterator sp "x" (Iter.range_i 0 6);
  Space.iterator sp "y" (Iter.range (Expr.int 0) (Expr.var "x" +: Expr.int 1));
  Space.constrain sp "odd" ((Expr.var "x" +: Expr.var "y") %: Expr.int 2 <>: Expr.int 0);
  let plan = Plan.make_exn sp in
  let feas = feasible plan in
  let k = Feasible.count feas in
  Alcotest.(check int) "survivors" 12 k;
  let per = 200 in
  let seen = Hashtbl.create 16 in
  let objective lookup =
    let p = (Value.to_int (lookup "x"), Value.to_int (lookup "y")) in
    Hashtbl.replace seen p (1 + Option.value ~default:0 (Hashtbl.find_opt seen p));
    0.0
  in
  ignore
    (Search.random_search ~rng:(rng ()) ~budget:(k * per) ~objective plan feas);
  Alcotest.(check int) "every survivor drawn" k (Hashtbl.length seen);
  let expected = float_of_int per in
  let chi2 =
    Hashtbl.fold
      (fun _ n acc ->
        let d = float_of_int n -. expected in
        acc +. (d *. d /. expected))
      seen 0.0
  in
  (* 0.999 quantile of chi-squared with 11 degrees of freedom. *)
  if chi2 >= 31.264 then Alcotest.failf "chi-squared %.2f >= 31.264" chi2

(* The objective's lookup is rebuilt from the plan, re-running every
   check on the point's path: a diagram that does not match the plan is
   caught at the first bad point, never scored. *)
let test_mismatched_diagram () =
  let open Expr.Infix in
  let space ~pruned =
    let sp = Space.create ~name:"parity" () in
    Space.iterator sp "x" (Iter.range_i 0 10);
    if pruned then
      Space.constrain sp "even_x" (Expr.var "x" %: Expr.int 2 =: Expr.int 0);
    Plan.make_exn sp
  in
  let plan = space ~pruned:true and feas = feasible (space ~pruned:false) in
  match
    Search.random_search ~rng:(rng ()) ~budget:50
      ~objective:(fun _ -> 0.0)
      plan feas
  with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "a diagram point the plan rejects was scored"

(* ---- Pareto / energy ---- *)

let test_pareto_front_nondominated () =
  let open Expr.Infix in
  let sp = Space.create ~name:"pareto" () in
  Space.iterator sp "x" (Iter.range_i 0 21);
  Space.iterator sp "y" (Iter.range_i 0 21);
  ignore ( +: );
  (* objective 1 favours x, objective 2 favours y; front = maximal x+y
     combos that trade off. *)
  let f1 lookup = float_of_int (Value.to_int (lookup "x")) in
  let f2 lookup =
    float_of_int (Value.to_int (lookup "y")) -. (0.1 *. float_of_int (Value.to_int (lookup "x")))
  in
  let front = Tuner.pareto ~objectives:(f1, f2) sp in
  Alcotest.(check bool) "nonempty" true (front <> []);
  (* No member dominates another. *)
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if a != b then begin
            let a1, a2 = a.Tuner.bi_scores and b1, b2 = b.Tuner.bi_scores in
            Alcotest.(check bool) "non-dominated" false
              (a1 >= b1 && a2 >= b2 && (a1 > b1 || a2 > b2))
          end)
        front)
    front;
  (* x=20 maximizes f1; y=20,x=0 maximizes f2; both extremes present. *)
  Alcotest.(check bool) "x extreme" true
    (List.exists (fun c -> fst c.Tuner.bi_scores = 20.0) front);
  Alcotest.(check bool) "y extreme" true
    (List.exists (fun c -> snd c.Tuner.bi_scores = 20.0) front)

let test_pareto_max_front () =
  let sp = Space.create () in
  Space.iterator sp "x" (Iter.range_i 0 201);
  let f1 lookup = float_of_int (Value.to_int (lookup "x")) in
  let f2 lookup = -.float_of_int (Value.to_int (lookup "x")) in
  let front = Tuner.pareto ~max_front:10 ~objectives:(f1, f2) sp in
  Alcotest.(check int) "capped" 10 (List.length front);
  Alcotest.(check bool) "extremes kept" true
    (List.exists (fun c -> fst c.Tuner.bi_scores = 200.0) front
    && List.exists (fun c -> fst c.Tuner.bi_scores = 0.0) front)

let good_dgemm =
  {
    Perf_model.precision = Device.Double;
    arithmetic = Device.Real;
    trans_a = false;
    trans_b = false;
    dim_m = 16;
    dim_n = 16;
    blk_m = 96;
    blk_n = 96;
    blk_k = 16;
    dim_vec = 2;
    vec_mul = 1;
    dim_m_a = 16;
    dim_n_a = 16;
    dim_m_b = 8;
    dim_n_b = 32;
    tex_a = 0;
    tex_b = 0;
    shmem_l1 = 0;
    shmem_banks = 1;
  }

let test_energy_model () =
  match Perf_model.energy Device.tesla_k40c good_dgemm with
  | None -> Alcotest.fail "feasible config must have energy"
  | Some e ->
    let tdp = Device.tesla_k40c.Device.tdp_watts in
    Alcotest.(check bool) "power above idle floor" true
      (e.Perf_model.power_watts > 0.25 *. tdp);
    Alcotest.(check bool) "power below TDP" true (e.Perf_model.power_watts <= tdp);
    Alcotest.(check bool) "efficiency positive" true
      (e.Perf_model.gflops_per_watt > 0.0);
    (* energy/flop and flops/watt are reciprocal up to units *)
    Alcotest.(check (float 1e-9)) "consistency"
      (1.0 /. e.Perf_model.gflops_per_watt)
      e.Perf_model.energy_per_gflop_j

let test_energy_infeasible () =
  let broken = { good_dgemm with Perf_model.blk_m = 512; blk_n = 512 } in
  Alcotest.(check bool) "None" true
    (Perf_model.energy Device.tesla_k40c broken = None);
  Alcotest.(check (float 0.0)) "gflops_per_watt 0" 0.0
    (Perf_model.gflops_per_watt Device.tesla_k40c broken)

let test_energy_slower_kernel_draws_less_power () =
  let slow = { good_dgemm with Perf_model.blk_m = 16; blk_n = 16;
               dim_m = 8; dim_n = 8; blk_k = 8 } in
  match
    ( Perf_model.energy Device.tesla_k40c good_dgemm,
      Perf_model.energy Device.tesla_k40c slow )
  with
  | Some fast, Some slow ->
    Alcotest.(check bool) "fast kernel draws more power" true
      (fast.Perf_model.power_watts > slow.Perf_model.power_watts);
    Alcotest.(check bool) "fast kernel is more efficient here" true
      (fast.Perf_model.gflops_per_watt > slow.Perf_model.gflops_per_watt)
  | _ -> Alcotest.fail "both feasible"

let () =
  Alcotest.run "search"
    [
      ( "sampling",
        [
          Alcotest.test_case "valid samples" `Quick test_sample_valid;
          Alcotest.test_case "empty space" `Quick test_sample_empty_space;
          Alcotest.test_case "sparse gemm space" `Quick test_sample_sparse_gemm;
        ] );
      ( "heuristics",
        [
          Alcotest.test_case "random search" `Quick test_random_search_finds_good;
          Alcotest.test_case "hill climb" `Quick test_hill_climb_improves;
          Alcotest.test_case "constraints hold" `Quick
            test_search_candidates_satisfy_constraints;
          Alcotest.test_case "overflowing trip count" `Quick test_huge_step;
          Alcotest.test_case "uniform draws" `Quick test_random_search_uniform;
          Alcotest.test_case "mismatched diagram" `Quick
            test_mismatched_diagram;
        ] );
      ( "pareto",
        [
          Alcotest.test_case "non-dominated front" `Quick
            test_pareto_front_nondominated;
          Alcotest.test_case "max_front cap" `Quick test_pareto_max_front;
        ] );
      ( "energy",
        [
          Alcotest.test_case "model" `Quick test_energy_model;
          Alcotest.test_case "infeasible" `Quick test_energy_infeasible;
          Alcotest.test_case "power scales with speed" `Quick
            test_energy_slower_kernel_draws_less_power;
        ] );
    ]
