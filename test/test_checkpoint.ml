(* Checkpoint/resume robustness: file-format round trips, corrupt-file
   rejection, kill-and-resume equivalence on the GEMM space, and
   fault-injected crash recovery. *)

open Beast_core

let gemm_plan () =
  let device =
    Beast_gpu.Device.scale ~max_dim:32 ~max_threads:128
      Beast_gpu.Device.tesla_k40c
  in
  let settings = { Beast_kernels.Gemm.default_settings with device } in
  Plan.make_exn (Beast_kernels.Gemm.space ~settings ())

let triangle_plan () = Plan.make_exn (Support.triangle_space ())

let tmp_path () = Filename.temp_file "beast_ck" ".json"
let to_json ck = Beast_obs.Jsonx.pretty (Checkpoint.to_jsonx ck)

(* Replace the first occurrence of [sub] in [s]; test-bug failure if
   [sub] is absent (the mangling tests rely on hitting real syntax). *)
let replace_once ~sub ~by s =
  let rec find i =
    if i + String.length sub > String.length s then None
    else if String.sub s i (String.length sub) = sub then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> Alcotest.failf "test bug: %S not in encoding" sub
  | Some i ->
    String.sub s 0 i ^ by
    ^ String.sub s
        (i + String.length sub)
        (String.length s - i - String.length sub)

let chunked_stats plan n_chunks =
  List.init n_chunks (fun index ->
      (index, Engine_staged.run (Plan.chunk_outer plan ~index ~of_:n_chunks)))

(* A checkpoint with a realistic partial ledger: every even chunk of an
   8-way split of the triangle plan. *)
let sample_checkpoint () =
  let plan = triangle_plan () in
  let completed =
    List.filter (fun (id, _) -> id mod 2 = 0) (chunked_stats plan 8)
  in
  (plan, Checkpoint.make ~plan ~shard:Stats_io.unsharded ~n_chunks:8 completed)

let test_round_trip () =
  let _, ck = sample_checkpoint () in
  match Checkpoint.of_json (to_json ck) with
  | Error msg -> Alcotest.failf "round trip failed: %s" msg
  | Ok ck' ->
    Alcotest.(check string) "space" ck.Checkpoint.space ck'.Checkpoint.space;
    Alcotest.(check int) "n_chunks" ck.Checkpoint.n_chunks
      ck'.Checkpoint.n_chunks;
    Alcotest.(check (list int)) "completed ids" [ 0; 2; 4; 6 ]
      (Checkpoint.completed_ids ck');
    Alcotest.(check bool) "constraints" true
      (ck.Checkpoint.constraints = ck'.Checkpoint.constraints);
    Alcotest.(check bool) "ledger" true
      (Checkpoint.chunk_stats ck = Checkpoint.chunk_stats ck');
    Alcotest.(check string) "byte-stable re-encoding"
      (to_json ck) (to_json ck')

let test_save_is_atomic_and_readable () =
  let _, ck = sample_checkpoint () in
  let path = tmp_path () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Checkpoint.save path ck;
      Alcotest.(check bool) "no stray tmp file" false
        (Sys.file_exists (Printf.sprintf "%s.%d.tmp" path (Unix.getpid ())));
      match Checkpoint.of_file path with
      | Error msg -> Alcotest.failf "cannot read back: %s" msg
      | Ok ck' ->
        Alcotest.(check string) "identical encoding" (to_json ck)
          (to_json ck'))

let expect_rejects what text =
  match Checkpoint.of_json text with
  | Ok _ -> Alcotest.failf "%s was accepted" what
  | Error msg ->
    Alcotest.(check bool)
      (Printf.sprintf "%s error is diagnosed (got %S)" what msg)
      true
      (String.length msg > String.length "checkpoint: "
      && String.sub msg 0 11 = "checkpoint:")

let test_corrupt_files_rejected () =
  let _, ck = sample_checkpoint () in
  let good = to_json ck in
  expect_rejects "garbage" "not json at all";
  expect_rejects "truncated file"
    (String.sub good 0 (String.length good / 2));
  expect_rejects "empty object" "{}";
  (* A stats file is valid JSON but not a checkpoint. *)
  let stats_file =
    Stats_io.to_json
      (Stats_io.of_stats ~plan:(triangle_plan ())
         (Engine_staged.run (triangle_plan ())))
  in
  expect_rejects "stats file" stats_file;
  expect_rejects "future format version"
    (replace_once ~sub:"\"beast_checkpoint\": 1" ~by:"\"beast_checkpoint\": 99"
       good);
  expect_rejects "out-of-range chunk id"
    (replace_once ~sub:"\"id\": 6" ~by:"\"id\": 8" good);
  expect_rejects "duplicate chunk id"
    (replace_once ~sub:"\"id\": 6" ~by:"\"id\": 4" good);
  expect_rejects "bad chunk arity"
    (replace_once ~sub:"\"n_chunks\": 8" ~by:"\"n_chunks\": 0" good)

let test_fired_arity_rejected () =
  let plan = triangle_plan () in
  let stats = Engine_staged.run plan in
  let ck =
    Checkpoint.make ~plan ~shard:Stats_io.unsharded ~n_chunks:4 [ (0, stats) ]
  in
  (* Smuggle an extra fired count into the encoded chunk. *)
  let mangled =
    replace_once ~sub:"\"fired\": [" ~by:"\"fired\": [0, " (to_json ck)
  in
  expect_rejects "fired arity mismatch" mangled

let test_validate_mismatches () =
  let plan, ck = sample_checkpoint () in
  (match Checkpoint.validate ~plan ~shard:Stats_io.unsharded ck with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "matching checkpoint rejected: %s" msg);
  (match Checkpoint.validate ~plan:(gemm_plan ()) ~shard:Stats_io.unsharded ck with
  | Ok () -> Alcotest.fail "wrong space accepted"
  | Error _ -> ());
  (match
     Checkpoint.validate ~plan
       ~shard:{ Stats_io.shard_index = 1; shard_of = 3 }
       ck
   with
  | Ok () -> Alcotest.fail "wrong shard accepted"
  | Error _ -> ());
  (* Same space name, different constraint list. *)
  let sp = Support.triangle_space () in
  let open Expr.Infix in
  Space.constrain sp "extra" (Expr.var "x" >: Expr.int 100);
  (match Checkpoint.validate ~plan:(Plan.make_exn sp) ~shard:Stats_io.unsharded ck with
  | Ok () -> Alcotest.fail "changed constraint list accepted"
  | Error _ -> ())

(* ------------------------------------------------------------------ *)
(* Resumable scheduler                                                 *)
(* ------------------------------------------------------------------ *)

let finished = function
  | Engine_intf.Finished stats -> stats
  | Engine_intf.Interrupted { completed; total } ->
    Alcotest.failf "unexpected interruption (%d/%d chunks)" completed total

let test_resumable_equals_plain_run () =
  let plan = gemm_plan () in
  let plain = Engine_parallel.run ~domains:2 plan in
  let resumed = finished (Engine_parallel.run_resumable ~domains:2 plan) in
  Alcotest.check Support.stats_testable "stats" plain resumed;
  Alcotest.(check int) "loop iterations" plain.Engine.loop_iterations
    resumed.Engine.loop_iterations

let test_interrupt_then_resume_byte_identical () =
  let plan = gemm_plan () in
  let reference = Engine_parallel.run ~domains:2 plan in
  let reference_json =
    Stats_io.to_json (Stats_io.of_stats ~plan reference)
  in
  let path = tmp_path () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let sink =
        {
          Engine_intf.ck_path = path;
          ck_every_s = 1e9;
          (* periodic writes never fire: only the forced final flush *)
          ck_run_id = None;
          ck_shard = Stats_io.unsharded;
        }
      in
      (* Interrupt from inside the sweep after a handful of survivors,
         as a signal handler would. *)
      let hits = ref 0 in
      let on_hit _ =
        incr hits;
        if !hits = 10 then Engine_parallel.interrupt ()
      in
      let outcome =
        Engine_parallel.run_resumable ~on_hit ~checkpoint:sink ~domains:2 plan
      in
      let completed, total =
        match outcome with
        | Engine_intf.Interrupted { completed; total } -> (completed, total)
        | Engine_intf.Finished _ ->
          Alcotest.fail "sweep finished despite the interrupt"
      in
      Alcotest.(check bool) "drained chunks recorded" true (completed >= 1);
      Alcotest.(check bool) "interrupted before the end" true
        (completed < total);
      let ck =
        match Checkpoint.of_file path with
        | Ok ck -> ck
        | Error msg -> Alcotest.failf "final checkpoint unreadable: %s" msg
      in
      Alcotest.(check int) "ledger matches the reported progress" completed
        (List.length (Checkpoint.completed_ids ck));
      (match Checkpoint.validate ~plan ~shard:Stats_io.unsharded ck with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "checkpoint fails validation: %s" msg);
      (* Resume under a different domain count: the ledger's chunk split
         must be honored and the output must be byte-identical. *)
      let resumed =
        finished
          (Engine_parallel.run_resumable ~checkpoint:sink ~resume:ck ~domains:3
             plan)
      in
      Alcotest.(check string) "byte-identical stats JSON" reference_json
        (Stats_io.to_json (Stats_io.of_stats ~plan resumed)))

(* A resumed run's metrics are the checkpoint's pooled with the live
   registry's: the points counted before the interruption and after the
   resume add up to an uninterrupted run's, in the checkpoints the
   resumed run writes as in the pool its stats file takes. *)
let test_resumed_metrics_pool () =
  let module Obs = Beast_obs.Obs in
  let module Metrics = Beast_obs.Metrics in
  let plan = gemm_plan () in
  let with_metrics f =
    let r = Metrics.create () in
    Obs.with_context
      { Obs.off with Obs.metrics = Some r; instrumented = true }
      f
  in
  let points = function
    | None -> Alcotest.fail "no metrics"
    | Some snap -> (
      match Metrics.Snapshot.find snap ~name:"points_total" ~labels:[] with
      | Some { Metrics.value = Metrics.Vcounter v; _ } -> v
      | _ -> Alcotest.fail "no points_total counter")
  in
  let reference =
    with_metrics (fun () ->
        ignore (Engine_parallel.run ~domains:2 plan);
        points (Checkpoint.run_metrics None))
  in
  let path = tmp_path () in
  let sink =
    {
      Engine_intf.ck_path = path;
      ck_every_s = 1e9;
      ck_run_id = None;
      ck_shard = Stats_io.unsharded;
    }
  in
  let read () =
    match Checkpoint.of_file path with
    | Ok ck -> ck
    | Error msg -> Alcotest.fail msg
  in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let hits = ref 0 in
      let on_hit _ =
        incr hits;
        if !hits = 10 then Engine_parallel.interrupt ()
      in
      (match
         with_metrics (fun () ->
             Engine_parallel.run_resumable ~on_hit ~checkpoint:sink
               ~domains:2 plan)
       with
      | Engine_intf.Interrupted _ -> ()
      | Engine_intf.Finished _ ->
        Alcotest.fail "sweep finished despite the interrupt");
      let ck = read () in
      Alcotest.(check bool) "interrupted part counted" true
        (points ck.Checkpoint.metrics < reference);
      with_metrics (fun () ->
          ignore
            (finished
               (Engine_parallel.run_resumable ~resume:ck ~domains:2 plan));
          Alcotest.(check int) "pooled points" reference
            (points (Checkpoint.run_metrics (Some ck))));
      (* Interrupted again, the resumed run flushes a checkpoint that
         pools both runs' points. *)
      let interrupt_at_first_hit _ = Engine_parallel.interrupt () in
      let live =
        with_metrics (fun () ->
            (match
               Engine_parallel.run_resumable ~on_hit:interrupt_at_first_hit
                 ~checkpoint:sink ~resume:ck ~domains:2 plan
             with
            | Engine_intf.Interrupted _ -> ()
            | Engine_intf.Finished _ ->
              Alcotest.fail "resumed sweep finished despite the interrupt");
            points (Checkpoint.run_metrics None))
      in
      Alcotest.(check int) "flushed checkpoint pools both runs"
        (points ck.Checkpoint.metrics + live)
        (points (read ()).Checkpoint.metrics))

let test_resume_from_complete_checkpoint_runs_nothing () =
  let plan = triangle_plan () in
  let n_chunks = 6 in
  let ck =
    Checkpoint.make ~plan ~shard:Stats_io.unsharded ~n_chunks
      (chunked_stats plan n_chunks)
  in
  let hits = ref 0 in
  let resumed =
    finished
      (Engine_parallel.run_resumable
         ~on_hit:(fun _ -> incr hits)
         ~resume:ck ~domains:2 plan)
  in
  Alcotest.(check int) "no chunk re-swept" 0 !hits;
  Alcotest.check Support.stats_testable "stats from the ledger alone"
    (Engine_staged.run plan) resumed

let test_interrupt_without_checkpoint_loses_no_invariants () =
  let plan = gemm_plan () in
  let hits = ref 0 in
  let on_hit _ =
    incr hits;
    if !hits = 5 then Engine_parallel.interrupt ()
  in
  (match Engine_parallel.run_resumable ~on_hit ~domains:2 plan with
  | Engine_intf.Interrupted { completed; total } ->
    Alcotest.(check bool) "partial progress reported" true
      (completed < total)
  | Engine_intf.Finished _ -> Alcotest.fail "finished despite interrupt");
  (* The stop flag must not leak into the next run. *)
  let next = finished (Engine_parallel.run_resumable ~domains:2 plan) in
  Alcotest.check Support.stats_testable "next run unaffected"
    (Engine_parallel.run ~domains:2 plan) next

let test_fault_injected_crashes_recovered () =
  let plan = gemm_plan () in
  let reference = Engine_parallel.run ~domains:2 plan in
  List.iter
    (fun prob ->
      let hits = ref 0 in
      let stats =
        finished
          (Engine_parallel.run_resumable
             ~on_hit:(fun _ -> incr hits)
             ~fault:(Run_config.Chunk_crash { prob; seed = 7 })
             ~domains:2 plan)
      in
      Alcotest.check Support.stats_testable
        (Printf.sprintf "stats at crash probability %g" prob)
        reference stats;
      Alcotest.(check int)
        (Printf.sprintf "on_hit exactly once per survivor at %g" prob)
        reference.Engine.survivors !hits)
    [ 0.3; 0.9 ]

let test_fault_with_checkpoint_and_resume () =
  (* Crashes, an interruption and a resume in one run: the full
     degradation story on one space. *)
  let plan = gemm_plan () in
  let reference_json =
    Stats_io.to_json (Stats_io.of_stats ~plan (Engine_parallel.run ~domains:2 plan))
  in
  let path = tmp_path () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let sink =
        {
          Engine_intf.ck_path = path;
          ck_every_s = 0.001;
          (* checkpoint after virtually every chunk *)
          ck_run_id = None;
          ck_shard = Stats_io.unsharded;
        }
      in
      let fault = Run_config.Chunk_crash { prob = 0.5; seed = 11 } in
      let hits = ref 0 in
      let on_hit _ =
        incr hits;
        if !hits = 200 then Engine_parallel.interrupt ()
      in
      (match
         Engine_parallel.run_resumable ~on_hit ~checkpoint:sink ~fault
           ~domains:2 plan
       with
      | Engine_intf.Interrupted _ -> ()
      | Engine_intf.Finished _ -> Alcotest.fail "finished despite interrupt");
      let ck =
        match Checkpoint.of_file path with
        | Ok ck -> ck
        | Error msg -> Alcotest.failf "checkpoint unreadable: %s" msg
      in
      let resumed =
        finished
          (Engine_parallel.run_resumable ~resume:ck ~fault ~domains:4 plan)
      in
      Alcotest.(check string) "byte-identical after crashes + resume"
        reference_json
        (Stats_io.to_json (Stats_io.of_stats ~plan resumed)))

(* A fatal chunk under 2 and 3 domains, at every chunk id, so some of
   the raises happen on the calling domain and some on a helper. The
   error surfaces only after every domain is joined: no survivor
   callback runs once it has surfaced. The next run in the same process
   is not stopped by the flag the failure set. *)
let test_fatal_chunk_joins_every_domain () =
  let plan = gemm_plan () in
  let json stats = Stats_io.to_json (Stats_io.of_stats ~plan stats) in
  let reference = json (Engine_staged.run plan) in
  List.iter
    (fun domains ->
      let n_chunks = domains * Engine_parallel.default_chunks_per_domain in
      for chunk = 0 to n_chunks - 1 do
        let what = Printf.sprintf "domains:%d chunk %d" domains chunk in
        let hits = Atomic.make 0 in
        (match
           Engine_parallel.run_resumable
             ~on_hit:(fun _ -> Atomic.incr hits)
             ~fault:(Run_config.Chunk_fatal { chunk })
             ~domains plan
         with
        | _ -> Alcotest.failf "%s: finished despite the fatal fault" what
        | exception Failure msg ->
          Alcotest.(check string) (what ^ ": injected error")
            (Printf.sprintf
               "Engine_parallel: injected fatal fault on chunk %d" chunk)
            msg);
        let seen = Atomic.get hits in
        Unix.sleepf 0.002;
        Alcotest.(check int) (what ^ ": no callback after the raise") seen
          (Atomic.get hits);
        Alcotest.(check string) (what ^ ": next run identical to staged")
          reference
          (json (Engine_parallel.run ~domains plan))
      done)
    [ 2; 3 ]

let test_bad_fault_probability_rejected () =
  let plan = triangle_plan () in
  Alcotest.check_raises "prob 1.0"
    (Invalid_argument
       "Engine_parallel.run_resumable: crash probability not in [0, 1)")
    (fun () ->
      ignore
        (Engine_parallel.run_resumable
           ~fault:(Run_config.Chunk_crash { prob = 1.0; seed = 1 })
           ~domains:2 plan))

let () =
  Alcotest.run "checkpoint"
    [
      ( "format",
        [
          Alcotest.test_case "round trip" `Quick test_round_trip;
          Alcotest.test_case "atomic save" `Quick
            test_save_is_atomic_and_readable;
          Alcotest.test_case "corrupt files rejected" `Quick
            test_corrupt_files_rejected;
          Alcotest.test_case "fired arity rejected" `Quick
            test_fired_arity_rejected;
          Alcotest.test_case "validate mismatches" `Quick
            test_validate_mismatches;
        ] );
      ( "resume",
        [
          Alcotest.test_case "resumable = plain run" `Quick
            test_resumable_equals_plain_run;
          Alcotest.test_case "interrupt then resume, byte-identical" `Quick
            test_interrupt_then_resume_byte_identical;
          Alcotest.test_case "resumed metrics pool" `Quick
            test_resumed_metrics_pool;
          Alcotest.test_case "complete checkpoint sweeps nothing" `Quick
            test_resume_from_complete_checkpoint_runs_nothing;
          Alcotest.test_case "interrupt without checkpoint" `Quick
            test_interrupt_without_checkpoint_loses_no_invariants;
        ] );
      ( "faults",
        [
          Alcotest.test_case "crashes recovered" `Quick
            test_fault_injected_crashes_recovered;
          Alcotest.test_case "crashes + interrupt + resume" `Quick
            test_fault_with_checkpoint_and_resume;
          Alcotest.test_case "bad probability rejected" `Quick
            test_bad_fault_probability_rejected;
          Alcotest.test_case "fatal chunk joins every domain" `Quick
            test_fatal_chunk_joins_every_domain;
        ] );
    ]
