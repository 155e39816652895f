(* Tests for the Beast_obs.Metrics registry: bucket-grid math, recording
   exactness, quantiles, lossless shard merging (bucket-for-bucket
   through the Stats_io JSON round-trip, per the acceptance criterion),
   multi-domain recording, serialization, and the report renderer. *)

open Beast_core
open Beast_obs

let contains text sub =
  let n = String.length text and m = String.length sub in
  let rec go i = i + m <= n && (String.sub text i m = sub || go (i + 1)) in
  go 0

let gemm_plan () =
  let device =
    Beast_gpu.Device.scale ~max_dim:12 ~max_threads:64
      Beast_gpu.Device.tesla_k40c
  in
  let settings = { Beast_kernels.Gemm.default_settings with device } in
  Plan.make_exn (Beast_kernels.Gemm.space ~settings ())

(* ------------------------------------------------------------------ *)
(* Bucket grid                                                         *)
(* ------------------------------------------------------------------ *)

let test_bucket_grid () =
  (* Every value lands in a bucket whose half-open bounds contain it,
     indices are monotone in the value, and the relative bucket width is
     bounded by 1/sub. *)
  let check_value v =
    let i = Metrics.bucket_of_value v in
    let lo, hi = Metrics.bucket_bounds i in
    if not (lo <= v && v < hi) then
      Alcotest.failf "value %d: bucket %d bounds [%d, %d) miss it" v i lo hi;
    if v >= 2 * Metrics.sub then begin
      let width = hi - lo in
      if float_of_int width > float_of_int lo /. float_of_int Metrics.sub then
        Alcotest.failf "value %d: bucket width %d too wide for lo %d" v width
          lo
    end
  in
  for v = 0 to 10_000 do
    check_value v
  done;
  List.iter check_value
    [ 1 lsl 20; (1 lsl 20) + 1; 123_456_789; 987_654_321; max_int / 2 ];
  let last = ref (-1) in
  for v = 0 to 10_000 do
    let i = Metrics.bucket_of_value v in
    Alcotest.(check bool) "monotone" true (i >= !last);
    last := i
  done;
  Alcotest.(check int) "negative clamps like zero" 0 (Metrics.bucket_of_value 0)

let test_record_exact_count_sum () =
  let r = Metrics.create () in
  let h = Metrics.histogram r ~unit_:"ns" ~name:"lat" ~labels:[] () in
  let samples = List.init 1000 (fun i -> (i * i) + 3) in
  List.iter (Metrics.record h) samples;
  Metrics.record h (-5);
  match Metrics.Snapshot.find (Metrics.snapshot r) ~name:"lat" ~labels:[] with
  | Some { Metrics.value = Metrics.Vhist hs; _ } ->
    Alcotest.(check int) "count exact" 1001 hs.Metrics.s_count;
    Alcotest.(check int) "sum exact (negative clamped to 0)"
      (List.fold_left ( + ) 0 samples)
      hs.Metrics.s_sum;
    Alcotest.(check int) "bucket counts total the count" hs.Metrics.s_count
      (List.fold_left (fun acc (_, k) -> acc + k) 0 hs.Metrics.s_buckets)
  | _ -> Alcotest.fail "histogram missing from snapshot"

let test_quantiles_bounded_error () =
  let r = Metrics.create () in
  let h = Metrics.histogram r ~name:"u" ~labels:[] () in
  for v = 0 to 999 do
    Metrics.record h v
  done;
  match Metrics.Snapshot.find (Metrics.snapshot r) ~name:"u" ~labels:[] with
  | Some { Metrics.value = Metrics.Vhist hs; _ } ->
    List.iter
      (fun (q, expected) ->
        let got = Metrics.Snapshot.quantile hs q in
        let err = Float.abs (got -. expected) /. expected in
        if err > 0.15 then
          Alcotest.failf "q%.2f: estimate %.1f vs %.1f (err %.3f)" q got
            expected err)
      [ (0.5, 500.0); (0.95, 950.0); (0.99, 990.0) ];
    Alcotest.(check (float 1e-9)) "mean exact" 499.5 (Metrics.Snapshot.mean hs);
    Alcotest.(check bool) "max bound covers the max" true
      (Metrics.Snapshot.max_bound hs >= 999)
  | _ -> Alcotest.fail "histogram missing"

(* ------------------------------------------------------------------ *)
(* Registry behaviour                                                  *)
(* ------------------------------------------------------------------ *)

let test_registry_keys_and_kinds () =
  let r = Metrics.create () in
  let h1 = Metrics.histogram r ~name:"x" ~labels:[ ("a", "1"); ("b", "2") ] () in
  let h2 = Metrics.histogram r ~name:"x" ~labels:[ ("b", "2"); ("a", "1") ] () in
  Metrics.record h1 10;
  Metrics.record h2 20;
  (match
     Metrics.Snapshot.find (Metrics.snapshot r) ~name:"x"
       ~labels:[ ("a", "1"); ("b", "2") ]
   with
  | Some { Metrics.value = Metrics.Vhist hs; _ } ->
    Alcotest.(check int) "label order irrelevant: same metric" 2
      hs.Metrics.s_count
  | _ -> Alcotest.fail "labelled histogram missing");
  (match Metrics.counter r ~name:"x" ~labels:[ ("a", "1"); ("b", "2") ] () with
  | _ -> Alcotest.fail "kind clash accepted"
  | exception Invalid_argument _ -> ());
  let g = Metrics.gauge r ~name:"g" ~labels:[] () in
  Metrics.set_gauge g 42.5;
  match Metrics.Snapshot.find (Metrics.snapshot r) ~name:"g" ~labels:[] with
  | Some { Metrics.value = Metrics.Vgauge v; _ } ->
    Alcotest.(check (float 1e-9)) "gauge value" 42.5 v
  | _ -> Alcotest.fail "gauge missing"

let test_multidomain_recording () =
  (* Four domains hammer the same histogram and counter; the snapshot
     must see every sample exactly once. *)
  let r = Metrics.create () in
  let h = Metrics.histogram r ~name:"mt" ~labels:[] () in
  let c = Metrics.counter r ~name:"mtc" ~labels:[] () in
  let per_domain = 5_000 in
  let workers =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for i = 1 to per_domain do
              Metrics.record h i;
              Metrics.add c 2
            done))
  in
  List.iter Domain.join workers;
  let snap = Metrics.snapshot r in
  (match Metrics.Snapshot.find snap ~name:"mt" ~labels:[] with
  | Some { Metrics.value = Metrics.Vhist hs; _ } ->
    Alcotest.(check int) "hist count" (4 * per_domain) hs.Metrics.s_count
  | _ -> Alcotest.fail "histogram missing");
  match Metrics.Snapshot.find snap ~name:"mtc" ~labels:[] with
  | Some { Metrics.value = Metrics.Vcounter v; _ } ->
    Alcotest.(check int) "counter total" (8 * per_domain) v
  | _ -> Alcotest.fail "counter missing"

(* ------------------------------------------------------------------ *)
(* Lossless shard merge: bucket-for-bucket, through Stats_io JSON       *)
(* ------------------------------------------------------------------ *)

let synthetic_sample i j = ((i * 37) + (j * 101)) * ((i mod 13) + 1) mod 900_001

let record_all r names pick =
  (* Deterministic synthetic "eval latencies" per GEMM constraint; only
     samples with [pick i] true land in this registry. *)
  List.iteri
    (fun j name ->
      let h =
        Metrics.histogram r ~unit_:"ns" ~name:"constraint_eval_ns"
          ~labels:[ ("constraint", name) ] ()
      in
      let c = Metrics.counter r ~name:"points_total" ~labels:[] () in
      for i = 0 to 399 do
        if pick i then begin
          Metrics.record h (synthetic_sample i j);
          Metrics.incr c
        end
      done)
    names

let stats_record ~shard_index ~shard_of metrics =
  {
    Stats_io.space = "gemm_synth";
    run_id = None;
    shard = { Stats_io.shard_index; shard_of };
    survivors = 0;
    loop_iterations = 0;
    constraints = [];
    metrics = Some metrics;
    provenance = None;
  }

let test_merge_bucket_for_bucket () =
  (* The acceptance criterion: split the sample stream over the GEMM
     space's constraints N ways (N = 1 and 3), push each shard through
     the full Stats_io JSON round-trip, merge, and compare against the
     all-in-one registry bucket for bucket. *)
  let plan = gemm_plan () in
  let names =
    Array.to_list (Array.map fst plan.Plan.constraint_info)
  in
  Alcotest.(check bool) "gemm has constraints" true (names <> []);
  let reference = Metrics.create () in
  record_all reference names (fun _ -> true);
  let ref_snap = Metrics.snapshot reference in
  List.iter
    (fun n ->
      let shards =
        List.init n (fun s ->
            let r = Metrics.create () in
            record_all r names (fun i -> i mod n = s);
            stats_record ~shard_index:s ~shard_of:n (Metrics.snapshot r))
      in
      (* Round-trip every shard through its JSON encoding first, the way
         a real sharded fleet hands files to `beast merge`. *)
      let reread =
        List.map
          (fun sh ->
            match Stats_io.of_json (Stats_io.to_json sh) with
            | Ok sh' -> sh'
            | Error msg -> Alcotest.failf "shard JSON round-trip: %s" msg)
          shards
      in
      match Stats_io.merge reread with
      | Error msg -> Alcotest.failf "%d-way merge failed: %s" n msg
      | Ok merged -> (
        match merged.Stats_io.metrics with
        | None -> Alcotest.fail "merged record dropped metrics"
        | Some snap ->
          Alcotest.(check bool)
            (Printf.sprintf "%d-way merge bucket-for-bucket" n)
            true
            (Metrics.Snapshot.equal ref_snap snap)))
    [ 1; 3 ]

let test_merge_gauge_and_mixed () =
  let snap_with_gauge v =
    let r = Metrics.create () in
    Metrics.set_gauge (Metrics.gauge r ~name:"domains" ~labels:[] ()) v;
    Metrics.snapshot r
  in
  (match Metrics.Snapshot.merge [ snap_with_gauge 2.0; snap_with_gauge 6.0 ] with
  | Ok [ { Metrics.value = Metrics.Vgauge v; _ } ] ->
    Alcotest.(check (float 1e-9)) "gauges keep the max" 6.0 v
  | Ok _ -> Alcotest.fail "unexpected merged shape"
  | Error msg -> Alcotest.fail msg);
  (* A shard fleet in which only some shards carry metrics is a user
     error, not something to silently drop. *)
  let with_m = stats_record ~shard_index:0 ~shard_of:2 Metrics.Snapshot.empty in
  let without =
    { with_m with Stats_io.shard = { Stats_io.shard_index = 1; shard_of = 2 };
      metrics = None }
  in
  match Stats_io.merge [ with_m; without ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "mixed metric presence accepted"

(* ------------------------------------------------------------------ *)
(* End-to-end: sharded instrumented sweeps over the real GEMM space     *)
(* ------------------------------------------------------------------ *)

(* How many times each constraint was evaluated: its latency histogram's
   count. *)
let evals snap name =
  match
    Metrics.Snapshot.find snap ~name:"constraint_eval_ns"
      ~labels:[ ("constraint", name) ]
  with
  | Some { Metrics.value = Metrics.Vhist h; _ } -> h.Metrics.s_count
  | _ -> Alcotest.failf "no eval histogram for %s" name

let counter snap name labels =
  match Metrics.Snapshot.find snap ~name ~labels with
  | Some { Metrics.value = Metrics.Vcounter v; _ } -> v
  | _ -> Alcotest.failf "no counter %s" name

(* A run with a metrics registry in its context, as --metrics installs. *)
let with_metrics r f =
  Obs.with_context
    { Obs.off with Obs.metrics = Some r; instrumented = true }
    f

let instrumented_run plan ~shards =
  List.init shards (fun index ->
      let r = Metrics.create () in
      let stats =
        with_metrics r (fun () ->
            Obs.time_phase "sweep" (fun () ->
                Engine_staged.run
                  (if shards = 1 then plan
                   else Plan.chunk_outer plan ~index ~of_:shards)))
      in
      Stats_io.of_stats ~plan
        ~shard:{ Stats_io.shard_index = index; shard_of = shards }
        ~metrics:(Metrics.snapshot r) stats)

let test_e2e_sharded_counts_match () =
  (* Real instrumented staged runs: the merged 3-shard fleet must report
     the same per-constraint evaluation counts and the same counters as
     the unsharded run. Timings differ run to run, so only count fields
     are compared. Depth-0 constraints evaluate once per shard, so their
     merged counts pool to shards x the unsharded count. *)
  let plan = gemm_plan () in
  let full = List.hd (instrumented_run plan ~shards:1) in
  let shards = instrumented_run plan ~shards:3 in
  let merged =
    match Stats_io.merge shards with
    | Ok m -> m
    | Error msg -> Alcotest.fail msg
  in
  Alcotest.(check int) "survivors match" full.Stats_io.survivors
    merged.Stats_io.survivors;
  let full_snap = Option.get full.Stats_io.metrics in
  let merged_snap = Option.get merged.Stats_io.metrics in
  let depth0 name =
    (List.find (fun c -> c.Stats_io.cr_name = name) full.Stats_io.constraints)
      .Stats_io.cr_depth0
  in
  Array.iter
    (fun (name, _) ->
      let expect =
        if depth0 name then 3 * evals full_snap name else evals full_snap name
      in
      Alcotest.(check int)
        (Printf.sprintf "eval count for %s" name)
        expect (evals merged_snap name))
    plan.Plan.constraint_info;
  Alcotest.(check int) "points_total matches"
    (counter full_snap "points_total" [])
    (counter merged_snap "points_total" []);
  List.iteri
    (fun d var ->
      Alcotest.(check int)
        (Printf.sprintf "loop entries at depth %d" d)
        (counter full_snap "loop_entries_total"
           [ ("depth", string_of_int d); ("var", var) ])
        (counter merged_snap "loop_entries_total"
           [ ("depth", string_of_int d); ("var", var) ]))
    plan.Plan.iter_order;
  (* The report renderer digests the merged snapshot into percentile
     tables. *)
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  Report.write ~top:5 ppf merged_snap;
  Format.pp_print_flush ppf ();
  let text = Buffer.contents buf in
  List.iter
    (fun sub ->
      Alcotest.(check bool) (sub ^ " in report") true (contains text sub))
    [ "p50"; "p95"; "p99"; "hot constraints"; "loop entries"; "phases" ]

(* ------------------------------------------------------------------ *)
(* Cross-engine: one run record, the same counters everywhere           *)
(* ------------------------------------------------------------------ *)

let test_engines_emit_same_metrics () =
  (* Propagation removes values from the batched TRSM space, so the
     replayed static prunes are counted too. *)
  let plan =
    Propagate.pass (Plan.make_exn (Beast_kernels.Trsm_batched.space ()))
  in
  Alcotest.(check bool) "plan is propagated" true (Plan.static_pruned plan > 0);
  let snapshot_of run =
    let r = Metrics.create () in
    let (_ : Engine.stats) = with_metrics r (fun () -> run plan) in
    Metrics.snapshot r
  in
  let reference = snapshot_of Engine_staged.run in
  Alcotest.(check bool) "points counted" true
    (counter reference "points_total" [] > 0);
  let depth0 = Plan.depth0_constraints plan in
  List.iter
    (fun (engine, run, chunks) ->
      let snap = snapshot_of run in
      let same what name labels =
        Alcotest.(check int)
          (Printf.sprintf "%s: %s" engine what)
          (counter reference name labels)
          (counter snap name labels)
      in
      same "points_total" "points_total" [];
      same "survivors_total" "survivors_total" [];
      List.iteri
        (fun d var ->
          same
            (Printf.sprintf "loop entries at depth %d" d)
            "loop_entries_total"
            [ ("depth", string_of_int d); ("var", var) ])
        plan.Plan.iter_order;
      (* Depth-0 constraints evaluate once per parallel chunk. *)
      Array.iteri
        (fun i (name, _) ->
          Alcotest.(check int)
            (Printf.sprintf "%s: evaluations of %s" engine name)
            ((if depth0.(i) then chunks else 1) * evals reference name)
            (evals snap name))
        plan.Plan.constraint_info)
    [
      ("interp", Engine_interp.run_plan ?on_hit:None, 1);
      ("vm", Engine_vm.run_plan ?on_hit:None, 1);
      ( "parallel:3",
        Engine_parallel.run ?on_hit:None ~domains:3,
        3 * Engine_parallel.default_chunks_per_domain );
    ];
  (* The compiled tier knows only the totals, and reports them through
     the same end-of-run path; checked when a compiler is found. *)
  if
    Sys.command
      (Printf.sprintf "command -v %s >/dev/null 2>&1" (Engine_native.cc ()))
    = 0
  then begin
    let snap =
      snapshot_of (Engine_native.run ?on_hit:None ?workdir:None ?threads:None)
    in
    List.iter
      (fun name ->
        Alcotest.(check int) ("native: " ^ name) (counter reference name [])
          (counter snap name []))
      [ "points_total"; "survivors_total" ]
  end

(* ------------------------------------------------------------------ *)
(* Serialization                                                       *)
(* ------------------------------------------------------------------ *)

let rich_snapshot () =
  let r = Metrics.create () in
  let h =
    Metrics.histogram r ~unit_:"ns" ~name:"lat"
      ~labels:[ ("stage", "a \"b\"\\c") ] ()
  in
  List.iter (Metrics.record h) [ 0; 1; 17; 300; 70_000; 12_345_678 ];
  Metrics.add (Metrics.counter r ~name:"hits" ~labels:[] ()) 9;
  Metrics.set_gauge (Metrics.gauge r ~name:"load" ~labels:[] ()) 0.75;
  Metrics.snapshot r

let test_json_roundtrip () =
  let snap = rich_snapshot () in
  (match Metrics.Snapshot.of_json (Metrics.Snapshot.to_json snap) with
  | Error msg -> Alcotest.fail msg
  | Ok snap' ->
    Alcotest.(check bool) "roundtrip equal" true
      (Metrics.Snapshot.equal snap snap'));
  List.iter
    (fun text ->
      match Metrics.Snapshot.of_json text with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted garbage %s" text)
    [ "{"; "[{\"name\": 3}]"; "[{\"name\": \"x\", \"type\": \"wat\"}]" ]

let test_prometheus_exposition () =
  let snap = rich_snapshot () in
  let text = Metrics.Snapshot.to_prometheus snap in
  List.iter
    (fun sub ->
      Alcotest.(check bool) (sub ^ " present") true (contains text sub))
    [
      "# TYPE lat histogram";
      "# TYPE hits counter";
      "# TYPE load gauge";
      "lat_bucket{stage=\"a \\\"b\\\"\\\\c\",le=\"+Inf\"} 6";
      "lat_sum{stage=";
      "lat_count{stage=";
      "hits 9";
    ];
  (* Cumulative bucket counts must be non-decreasing. *)
  let last = ref 0 in
  String.split_on_char '\n' text
  |> List.iter (fun line ->
         if contains line "lat_bucket" then begin
           match String.rindex_opt line ' ' with
           | Some i ->
             let v =
               int_of_string
                 (String.sub line (i + 1) (String.length line - i - 1))
             in
             Alcotest.(check bool) "cumulative" true (v >= !last);
             last := v
           | None -> Alcotest.fail "malformed bucket line"
         end)

(* ------------------------------------------------------------------ *)
(* Duration / SI formatting (Units)                                     *)
(* ------------------------------------------------------------------ *)

let test_duration_formatting () =
  List.iter
    (fun (ns, expected) ->
      Alcotest.(check string)
        (Printf.sprintf "%d ns" ns)
        expected (Units.duration_ns ns))
    [
      (0, "0ns");
      (740, "740ns");
      (999, "999ns");
      (1_000, "1.00us");
      (42_300, "42.3us");
      (999_499, "999us");
      (1_500_000, "1.50ms");
      (250_000_000, "250ms");
      (12_000_000_000, "12.0s");
    ];
  Alcotest.(check string) "nan" "nan" (Units.duration_ns_f Float.nan);
  List.iter
    (fun (v, expected) ->
      Alcotest.(check string)
        (Printf.sprintf "si %d" v)
        expected (Units.si_int v))
    [ (0, "0"); (9_500, "9500"); (10_500, "10.5k"); (1_250_000, "1.25M") ]

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "metrics"
    [
      ( "buckets",
        [
          Alcotest.test_case "grid invariants" `Quick test_bucket_grid;
          Alcotest.test_case "exact count and sum" `Quick
            test_record_exact_count_sum;
          Alcotest.test_case "quantile error bound" `Quick
            test_quantiles_bounded_error;
        ] );
      ( "registry",
        [
          Alcotest.test_case "keys and kinds" `Quick test_registry_keys_and_kinds;
          Alcotest.test_case "multi-domain recording" `Quick
            test_multidomain_recording;
        ] );
      ( "merging",
        [
          Alcotest.test_case "bucket-for-bucket via Stats_io" `Quick
            test_merge_bucket_for_bucket;
          Alcotest.test_case "gauges and mixed presence" `Quick
            test_merge_gauge_and_mixed;
          Alcotest.test_case "e2e sharded GEMM counts" `Quick
            test_e2e_sharded_counts_match;
        ] );
      ( "engines",
        [
          Alcotest.test_case "same counters on every engine" `Quick
            test_engines_emit_same_metrics;
        ] );
      ( "serialization",
        [
          Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "prometheus exposition" `Quick
            test_prometheus_exposition;
        ] );
      ( "units",
        [
          Alcotest.test_case "duration and SI formatting" `Quick
            test_duration_formatting;
        ] );
    ]
