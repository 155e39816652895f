open Beast_core

let test_funnel_exact () =
  let f = Stats.funnel (Support.triangle_space ()) in
  (* 8*9/2 = 36 unconstrained points. *)
  Alcotest.(check int) "total" 36 f.Stats.total_points;
  let expected_survivors = Support.survivor_count (Support.triangle_space ()) in
  Alcotest.(check int) "survivors" expected_survivors f.Stats.survivors;
  (* Removed counts must account for every pruned point. *)
  let removed_total =
    List.fold_left
      (fun acc (r : Stats.row) ->
        match r.Stats.removed with
        | Some k -> acc + k
        | None -> Alcotest.fail "exact funnel must attribute removals")
      0 f.Stats.rows
  in
  Alcotest.(check int) "removals sum to pruned points"
    (f.Stats.total_points - f.Stats.survivors)
    removed_total

let test_funnel_rates () =
  let f = Stats.funnel (Support.triangle_space ()) in
  let sr = Stats.survival_rate f and pf = Stats.pruned_fraction f in
  Alcotest.(check bool) "rates in [0,1]" true (0. <= sr && sr <= 1.);
  Alcotest.(check (float 1e-9)) "complementary" 1.0 (sr +. pf)

let test_funnel_order_is_evaluation_order () =
  let f = Stats.funnel (Support.triangle_space ()) in
  (* big_x (depth 1) is evaluated before odd_sum (depth 2). *)
  Alcotest.(check (list (pair string int)))
    "row order and depths"
    [ ("big_x", 1); ("odd_sum", 2) ]
    (List.map
       (fun (r : Stats.row) -> (r.Stats.constraint_name, r.Stats.depth))
       f.Stats.rows)

(* Size of the unconstrained space (every iterator combination, no
   pruning), counted by the feasible-set diagram without enumerating. *)
let unconstrained_count sp =
  let plan =
    Plan.make_exn (Space.filter_constraints sp ~keep:(fun _ -> false))
  in
  match Feasible.build plan with
  | Ok f -> Feasible.count f
  | Error msg -> Alcotest.failf "feasible set refused: %s" msg

let test_csv () =
  let f = Stats.funnel (Support.triangle_space ()) in
  let csv = Stats.to_csv f in
  let lines = String.split_on_char '\n' csv in
  Alcotest.(check string) "header" "constraint,class,fired,removed"
    (List.hd lines);
  (* header + 2 constraints + TOTAL + trailing newline *)
  Alcotest.(check int) "line count" 5 (List.length lines)

(* The TOTAL row sums each column independently: fired counts firing
   events (one firing can remove a whole subtree), removed counts
   points. On the triangle space they differ, which guards against the
   old bug of printing points-removed in both columns. *)
let test_csv_total_row () =
  let f = Stats.funnel (Support.triangle_space ()) in
  let csv = Stats.to_csv f in
  let total_line =
    List.find
      (fun l -> String.length l >= 5 && String.sub l 0 5 = "TOTAL")
      (String.split_on_char '\n' csv)
  in
  match String.split_on_char ',' total_line with
  | [ _; _; fired; removed ] ->
    let expected_fired =
      List.fold_left (fun acc (r : Stats.row) -> acc + r.Stats.fired) 0 f.Stats.rows
    in
    Alcotest.(check int) "fired sums the rows" expected_fired
      (int_of_string fired);
    Alcotest.(check int) "removed is points pruned"
      (f.Stats.total_points - f.Stats.survivors)
      (int_of_string removed);
    Alcotest.(check bool) "columns differ on this space" true
      (expected_fired <> f.Stats.total_points - f.Stats.survivors)
  | _ -> Alcotest.fail "malformed TOTAL row"

(* On a funnel whose removal count raised, the TOTAL row's removed cell
   stays empty, like the unknown row's: the known removals are no
   total. *)
let test_csv_partial_total () =
  let f = Stats.funnel (Support.raising_space ()) in
  Alcotest.(check bool) "partial" false (Stats.exact f);
  Alcotest.(check (list string)) "rows"
    [
      "constraint,class,fired,removed";
      "ca,hard,1,";
      "cb,hard,8,8";
      "TOTAL,,9,";
      "";
    ]
    (String.split_on_char '\n' (Stats.to_csv f))

let test_merge () =
  let sp = Support.triangle_space () in
  let s = Engine_staged.run_space sp in
  let m = Engine.merge s s in
  Alcotest.(check int) "survivors" (2 * s.Engine.survivors) m.Engine.survivors;
  Alcotest.(check int) "loop iterations"
    (2 * s.Engine.loop_iterations)
    m.Engine.loop_iterations;
  Array.iteri
    (fun i (n, c, k) ->
      let n', c', k' = s.Engine.pruned.(i) in
      Alcotest.(check string) "constraint name" n' n;
      Alcotest.(check bool) "constraint class" true (c = c');
      Alcotest.(check int) "fired doubles" (2 * k') k)
    m.Engine.pruned;
  let truncated = { s with Engine.pruned = Array.sub s.Engine.pruned 0 1 } in
  Alcotest.check_raises "plan mismatch"
    (Invalid_argument "Engine.merge: stats from different plans") (fun () ->
      ignore (Engine.merge s truncated))

let test_svg () =
  let f = Stats.funnel (Support.triangle_space ()) in
  let svg = Visualize.svg f in
  let contains sub =
    let n = String.length svg and m = String.length sub in
    let rec go i = i + m <= n && (String.sub svg i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "is svg" true (contains "<svg");
  Alcotest.(check bool) "has rings" true (contains "<path");
  Alcotest.(check bool) "labels constraints" true (contains "odd_sum");
  Alcotest.(check bool) "closes" true (contains "</svg>")

(* The summary line prints a percent sign, and a point total only when
   the funnel is exact; otherwise [Stats.pp]'s partial note. *)
let test_html_report () =
  let contains html sub =
    let n = String.length html and m = String.length sub in
    let rec go i = i + m <= n && (String.sub html i m = sub || go (i + 1)) in
    go 0
  in
  let f = Stats.funnel (Support.triangle_space ()) in
  let html = Visualize.html_report f in
  Alcotest.(check bool) "has table" true (contains html "<table");
  Alcotest.(check bool) "percent sign" true
    (contains html
       (Printf.sprintf "36 points, %d survivors (%.2f%% pruned)</p>"
          f.Stats.survivors
          (100. *. Stats.pruned_fraction f)));
  Alcotest.(check bool) "no escaped percent" false (contains html "%25");
  let html = Visualize.html_report (Stats.funnel (Support.raising_space ())) in
  Alcotest.(check bool) "partial note" true
    (contains html
       "<b>raise</b>: 14 survivors (a removal count raised: removal counts \
        are partial)</p>");
  Alcotest.(check bool) "no point total" false (contains html "points")

let test_sweep_engines_api () =
  let sp = Support.triangle_space () in
  let expected = Support.survivor_count sp in
  List.iter
    (fun e ->
      (* parameterized engines at 2 domains / threads *)
      let s = Sweep.run ~engine:(e.Engine_registry.e_make (Some 2)) sp in
      Alcotest.(check int) e.Engine_registry.e_spec expected s.Engine.survivors)
    Engine_registry.catalog

let test_sweep_survivors () =
  let sp = Support.triangle_space () in
  let points = Sweep.survivors sp in
  Alcotest.(check int) "count" (Support.survivor_count sp) (List.length points);
  List.iter
    (fun point ->
      let x = Value.to_int (List.assoc "x" point) in
      let y = Value.to_int (List.assoc "y" point) in
      Alcotest.(check bool) "satisfies constraints" true
        ((x + y) mod 2 = 0 && x <= 5 && x <= y))
    points;
  let limited = Sweep.survivors ~limit:3 sp in
  Alcotest.(check int) "limit" 3 (List.length limited)

let test_sweep_fold () =
  let sp = Support.triangle_space () in
  let sum, stats =
    Sweep.fold sp ~init:0 ~f:(fun acc lookup ->
        acc + Value.to_int (lookup "s"))
  in
  Alcotest.(check bool) "positive sum" true (sum > 0);
  Alcotest.(check int) "stats survivors" (Support.survivor_count sp)
    stats.Engine.survivors

(* The feasible-set count of the unconstrained space against a sweep of
   it, on a range space, on closure iterators and on GEMM-8. *)
let test_cardinality_ignores_constraints () =
  let gemm8 =
    let device =
      Beast_gpu.Device.scale ~max_dim:8 ~max_threads:32
        Beast_gpu.Device.tesla_k40c
    in
    Beast_kernels.Gemm.space
      ~settings:{ Beast_kernels.Gemm.default_settings with device }
      ()
  in
  Alcotest.(check int) "triangle" 36
    (unconstrained_count (Support.triangle_space ()));
  List.iter
    (fun sp ->
      let swept =
        Engine_staged.run_space
          (Space.filter_constraints sp ~keep:(fun _ -> false))
      in
      Alcotest.(check int) (Space.name sp) swept.Engine.survivors
        (unconstrained_count sp))
    [ Support.triangle_space (); Support.mixed_space (); gemm8 ]

let () =
  Alcotest.run "stats"
    [
      ( "funnel",
        [
          Alcotest.test_case "exact attribution" `Quick test_funnel_exact;
          Alcotest.test_case "rates" `Quick test_funnel_rates;
          Alcotest.test_case "evaluation order" `Quick
            test_funnel_order_is_evaluation_order;
          Alcotest.test_case "csv" `Quick test_csv;
          Alcotest.test_case "csv TOTAL row" `Quick test_csv_total_row;
          Alcotest.test_case "csv partial TOTAL row" `Quick
            test_csv_partial_total;
          Alcotest.test_case "merge" `Quick test_merge;
        ] );
      ( "visualize",
        [
          Alcotest.test_case "svg" `Quick test_svg;
          Alcotest.test_case "html report" `Quick test_html_report;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "engine selection" `Quick test_sweep_engines_api;
          Alcotest.test_case "survivors" `Quick test_sweep_survivors;
          Alcotest.test_case "fold" `Quick test_sweep_fold;
          Alcotest.test_case "cardinality unconstrained" `Quick
            test_cardinality_ignores_constraints;
        ] );
    ]
