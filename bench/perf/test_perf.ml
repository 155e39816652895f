open Beast_perf
module W = Workload

let ints n = List.init n (fun i -> float_of_int (i + 1))
let check_bool = Alcotest.(check bool)

let test_percentiles () =
  let check = Alcotest.(check (float 0.0)) in
  check "p50 of 1..100" 50.0 (Pstats.percentile ~p:50 (ints 100));
  check "p90 of 1..100" 90.0 (Pstats.percentile ~p:90 (ints 100));
  check "p90 of 1..10" 9.0 (Pstats.percentile ~p:90 (ints 10));
  check "p100 is the maximum" 10.0
    (Pstats.percentile ~p:100 (List.rev (ints 10)));
  check "median of one" 3.5 (Pstats.median [ 3.5 ]);
  check "unsorted input" 2.0 (Pstats.median [ 3.0; 1.0; 2.0 ])

let test_beyond () =
  let check = Alcotest.(check int) in
  check "100 samples: 10 beyond p90" 10 (Pstats.beyond ~p:90 100);
  check "99 samples: 9 beyond p90" 9 (Pstats.beyond ~p:90 99);
  check "110 samples: 11 beyond p90" 11 (Pstats.beyond ~p:90 110);
  check_bool "p90 of 100 is reportable" true (Pstats.reportable ~p:90 100);
  check_bool "p90 of 99 is not" false (Pstats.reportable ~p:90 99);
  check_bool "p50 of 20 is" true (Pstats.reportable ~p:50 20)

let verdict =
  Alcotest.testable
    (fun ppf v -> Format.pp_print_string ppf (Pstats.verdict_name v))
    ( = )

let test_verdicts () =
  let v better bound base cur = Pstats.verdict ~better ~bound ~base ~cur in
  let check = Alcotest.check verdict in
  check "lower: +10% at a 10% bound" Pstats.Within (v Lower 0.1 2.0 2.2);
  check "lower: -10% at a 10% bound" Pstats.Within (v Lower 0.1 2.0 1.8);
  check "lower: just past +10%" Pstats.Worse (v Lower 0.1 2.0 2.2001);
  check "lower: just past -10%" Pstats.Better (v Lower 0.1 2.0 1.7999);
  check "higher: -10% at a 10% bound" Pstats.Within (v Higher 0.1 10.0 9.0);
  check "higher: just past -10%" Pstats.Worse (v Higher 0.1 10.0 8.999);
  check "higher: just past +10%" Pstats.Better (v Higher 0.1 10.0 11.001);
  check "zero bound, equal" Pstats.Within (v Lower 0.0 0.5 0.5);
  check "zero bound, any worsening" Pstats.Worse (v Lower 0.0 0.5 0.5001)

(* ------------------------------------------------------------------ *)

let reference =
  Beast_core.Stats_io.to_json
    {
      Beast_core.Stats_io.space = "gemm";
      run_id = None;
      shard = Beast_core.Stats_io.unsharded;
      survivors = 42;
      loop_iterations = 1000;
      constraints = [];
      metrics = None;
      provenance = None;
    }

let refs = [ ("gemm48", reference); ("gemm32", reference) ]
let sweep48 = W.sweep (W.gemm 48)

let outcome =
  Alcotest.testable
    (fun ppf r ->
      Format.pp_print_string ppf
        (match r with Ok () -> "ok" | Error m -> m))
    (fun a b -> Result.is_ok a = Result.is_ok b)

let ok = Ok ()
let failed = Error ""
let check_op ?(stdout = "") ?file op = W.check ~refs ~stdout ~read:(fun _ -> file) op

let test_stats_check () =
  let flipped = Bytes.of_string reference in
  Bytes.set flipped 20 (Char.chr (Char.code (Bytes.get flipped 20) lxor 1));
  let flipped = Bytes.to_string flipped in
  let check = Alcotest.check outcome in
  check "identical bytes pass" ok (check_op ~file:reference sweep48);
  check "one flipped byte fails" failed (check_op ~file:flipped sweep48);
  check "a missing file fails" failed (check_op sweep48);
  check "no reference fails" failed
    (check_op ~file:reference (W.sweep (W.gemm 50)));
  Alcotest.(check int)
    "iterations come from the reference" 1000 (W.iterations ~refs sweep48)

let members =
  [ "link0=0 link1=3 link2=3 link3=255 p=14"; "link0=7 link1=7 link2=7 link3=7 p=0" ]

let test_sample_check () =
  let run n lines =
    check_op
      ~stdout:(String.concat "\n" lines ^ "\n")
      (W.Sample { space = W.Builtin "synth"; n; seed = 1 })
  in
  let with_line l = run 3 (members @ [ l ]) in
  let check = Alcotest.check outcome in
  check "members pass" ok (run 2 members);
  check "too few lines" failed (run 3 members);
  check "decreasing links" failed
    (with_line "link0=5 link1=4 link2=6 link3=7 p=2");
  check "odd parity" failed (with_line "link0=1 link1=2 link2=3 link3=4 p=3");
  check "link out of range" failed
    (with_line "link0=1 link1=2 link2=3 link3=256 p=2");
  check "missing field" failed (with_line "link0=1 link1=2 link2=3 p=2")

let test_other_checks () =
  let check = Alcotest.check outcome in
  let expected = Beast_kernels.Synth.expected_survivors () in
  let count n op = check_op ~stdout:(Printf.sprintf "%d\n" n) op in
  let synth = W.Count (W.Builtin "synth") and gemm32 = W.Count (W.gemm 32) in
  check "synth count" ok (count expected synth);
  check "wrong synth count" failed (count (expected - 1) synth);
  check "file count against reference" ok (count 42 gemm32);
  check "wrong file count" failed (count 43 gemm32);
  let explain = W.Explain "e.json" in
  let sections = List.map (fun s -> s ^ " ...") W.explain_sections in
  check "explain sections" ok
    (check_op ~stdout:(String.concat "\n" sections) explain);
  check "missing explain section" failed
    (check_op ~stdout:(List.hd sections) explain)

(* ------------------------------------------------------------------ *)

(* An op with the parts the seed may change normalized away. *)
let work = function
  | W.Sample s -> W.Sample { s with seed = 0 }
  | W.Merge m -> W.Merge { m with inputs = List.sort compare m.inputs }
  | op -> op

let test_seed () =
  List.iter
    (fun w ->
      let a = w.W.ops ~seed:3 and c = w.W.ops ~seed:4 in
      check_bool (w.W.name ^ ": same seed, same list") true (a = w.W.ops ~seed:3);
      check_bool
        (w.W.name ^ ": other seed, same work")
        true
        (List.sort compare (List.map work a)
        = List.sort compare (List.map work c)))
    W.all;
  let ladder = (Option.get (W.find "apps-ladder")).W.ops in
  check_bool "the seed permutes the ladder" false
    (ladder ~seed:3 = ladder ~seed:4);
  List.iter
    (fun seed ->
      let ops = List.mapi (fun i op -> (i, op)) (ladder ~seed) in
      let index p = fst (List.find (fun (_, op) -> p op) ops) in
      let shard i = function
        | W.Sweep { shard = Some (j, _); _ } -> i = j
        | _ -> false
      in
      let merge = index (function W.Merge _ -> true | _ -> false) in
      check_bool "shards run before their merge" true
        (index (shard 0) < merge && index (shard 1) < merge))
    [ 1; 2; 3; 4; 5 ]

let test_gemm_source () =
  let template =
    String.concat "\n"
      [
        "space gemm";
        "setting max_threads_per_block = 256";
        "setting max_threads_dim_x = 64";
        "setting max_threads_dim_y = 64";
        "setting max_threads_per_multi_processor = 2048";
      ]
  in
  let lines =
    String.split_on_char '\n' (W.gemm_source ~template ~dim:20 ~skew:true)
  in
  let has line = check_bool line true (List.mem line lines) in
  has "setting max_threads_dim_x = 20";
  has "setting max_threads_dim_y = 20";
  has "setting max_threads_per_block = 80";
  has "setting max_threads_per_multi_processor = 2048";
  has "constraint hard skew_blocking = dim_m % 4 != 0";
  Alcotest.check_raises "a missing setting"
    (Failure "GEMM template has no 'setting max_threads_per_block =' line")
    (fun () ->
      let template =
        "setting max_threads_dim_x = 1\nsetting max_threads_dim_y = 1\n"
      in
      ignore (W.gemm_source ~template ~dim:4 ~skew:false))

let () =
  let case name f = Alcotest.test_case name `Quick f in
  Alcotest.run "perf"
    [
      ( "pstats",
        [
          case "nearest-rank percentiles" test_percentiles;
          case "ten samples beyond" test_beyond;
          case "verdicts at the bound" test_verdicts;
        ] );
      ( "checks",
        [
          case "stats bytes" test_stats_check;
          case "sample membership" test_sample_check;
          case "counts and explain" test_other_checks;
        ] );
      ( "workloads",
        [
          case "seeded invocation lists" test_seed;
          case "generated GEMM inputs" test_gemm_source;
        ] );
    ]
