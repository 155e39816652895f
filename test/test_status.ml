(* Live-introspection layer: run manifests, the heartbeat status file,
   the flight recorder and the fatal-fault crash path.

   The load-bearing properties: a status file is *always* a complete
   parseable document no matter when a reader samples it (atomic
   temp-then-rename under concurrent ticks), turning the heartbeat on
   never changes the sweep's statistics (byte-identical --stats-out),
   and a crashed run leaves a deterministic flight dump behind. *)

open Beast_core
open Beast_obs

let triangle_plan () = Plan.make_exn (Support.triangle_space ())

let tmp_path suffix = Filename.temp_file "beast_status" suffix

let rm path = try Sys.remove path with Sys_error _ -> ()

let with_tmp suffix f =
  let path = tmp_path suffix in
  Fun.protect ~finally:(fun () -> rm path) (fun () -> f path)

(* ------------------------------------------------------------------ *)
(* Run manifests                                                       *)
(* ------------------------------------------------------------------ *)

let with_tmp_dir f =
  let dir = Filename.temp_file "beast_runs" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun f -> rm (Filename.concat dir f)) (Sys.readdir dir);
        try Unix.rmdir dir with Unix.Unix_error _ -> ()
      end)
    (fun () -> f dir)

let test_run_meta_round_trip () =
  let m =
    Run_meta.make ~run_id:"deadbeef0123" ~space:"triangle" ~shard:(1, 3)
      ~engine:"parallel" ()
  in
  match Run_meta.of_json (Run_meta.to_json m) with
  | Error msg -> Alcotest.failf "round trip failed: %s" msg
  | Ok m' ->
    Alcotest.(check string) "byte-stable re-encoding" (Run_meta.to_json m)
      (Run_meta.to_json m');
    Alcotest.(check string) "status" "running"
      (Run_meta.status_name m'.Run_meta.status);
    Alcotest.(check bool) "no exit code while running" true
      (m'.Run_meta.exit_code = None)

let test_run_meta_save_finalize_list () =
  with_tmp_dir (fun dir ->
      let a =
        Run_meta.make ~run_id:"aaaaaaaaaaaa" ~space:"triangle"
          ~engine:"staged" ()
      in
      let b =
        Run_meta.make ~run_id:"bbbbbbbbbbbb" ~space:"triangle" ~shard:(0, 2)
          ~engine:"parallel" ()
      in
      Run_meta.save ~dir a;
      Run_meta.save ~dir b;
      let b' =
        Run_meta.finalize ~dir b ~status:Run_meta.Interrupted ~exit_code:3
          ~wall_s:1.5
      in
      Alcotest.(check bool) "finalize records the exit code" true
        (b'.Run_meta.exit_code = Some 3);
      match Run_meta.list ~dir with
      | [ x; y ] ->
        Alcotest.(check string) "sorted by run id" "aaaaaaaaaaaa"
          x.Run_meta.run_id;
        Alcotest.(check string) "finalized status read back" "interrupted"
          (Run_meta.status_name y.Run_meta.status);
        Alcotest.(check bool) "wall time read back" true
          (y.Run_meta.wall_s = Some 1.5)
      | l -> Alcotest.failf "expected 2 manifests, got %d" (List.length l))

let test_run_meta_list_skips_garbage () =
  with_tmp_dir (fun dir ->
      let m =
        Run_meta.make ~run_id:"cccccccccccc" ~space:"triangle" ~engine:"staged"
          ()
      in
      Run_meta.save ~dir m;
      let oc = open_out (Filename.concat dir "junk.json") in
      output_string oc "{ not json";
      close_out oc;
      Alcotest.(check int) "only the parseable manifest" 1
        (List.length (Run_meta.list ~dir));
      Alcotest.(check int) "absent directory is empty" 0
        (List.length (Run_meta.list ~dir:(dir ^ ".does-not-exist"))))

let test_fresh_id_shape () =
  let a = Run_meta.fresh_id ~seed:"s" () in
  let b = Run_meta.fresh_id ~seed:"s" () in
  Alcotest.(check int) "12 hex chars" 12 (String.length a);
  String.iter
    (fun c ->
      Alcotest.(check bool) "hex digit" true
        (match c with '0' .. '9' | 'a' .. 'f' -> true | _ -> false))
    a;
  Alcotest.(check bool) "nonce makes same-seed ids distinct" true (a <> b)

(* ------------------------------------------------------------------ *)
(* Heartbeat status file                                               *)
(* ------------------------------------------------------------------ *)

let test_status_snapshot_fields () =
  with_tmp ".status" (fun path ->
      let tally = Tally.create () in
      let (_ : Status.t) =
        Status.create ~interval_s:0.0 ~run_id:"deadbeef0123" ~space:"triangle"
          ~shard:(1, 3) ~path tally
      in
      Tally.chunk_tick tally ~completed:0 ~total:8;
      Tally.tick tally ~dom:0 ~points:100 ~survivors:10 ~frac:0.5;
      Tally.tick tally ~dom:1 ~points:50 ~survivors:5 ~frac:0.25;
      Tally.chunk_tick tally ~completed:2 ~total:8;
      match Status.of_file path with
      | Error msg -> Alcotest.failf "cannot read status: %s" msg
      | Ok v ->
        Alcotest.(check string) "state" "running" v.Status.v_state;
        Alcotest.(check bool) "run id" true
          (v.Status.v_run_id = Some "deadbeef0123");
        Alcotest.(check bool) "shard" true (v.Status.v_shard = Some (1, 3));
        Alcotest.(check int) "chunks done" 2 v.Status.v_chunks_done;
        Alcotest.(check int) "chunks total" 8 v.Status.v_chunks_total;
        Alcotest.(check int) "points pooled" 150 v.Status.v_points;
        Alcotest.(check int) "survivors pooled" 15 v.Status.v_survivors;
        Alcotest.(check (list (triple int int int))) "per-domain rows sorted"
          [ (0, 100, 10); (1, 50, 5) ]
          v.Status.v_domains;
        Alcotest.(check bool) "no stray tmp file" false
          (Sys.file_exists
             (Printf.sprintf "%s.%d.tmp" path (Unix.getpid ()))))

let test_status_always_parseable_concurrently () =
  (* Writers hammer the file with interval 0 (a rewrite per tick) while
     the main domain samples it: every successful read must be a
     complete, schema-valid document — the atomicity claim. *)
  with_tmp ".status" (fun path ->
      let tally = Tally.create () in
      let t = Status.create ~interval_s:0.0 ~space:"triangle" ~path tally in
      Tally.chunk_tick tally ~completed:0 ~total:64;
      let writers =
        List.init 2 (fun w ->
            Domain.spawn (fun () ->
                for i = 1 to 500 do
                  Tally.tick tally ~dom:w ~points:(i * 10) ~survivors:i
                    ~frac:(float_of_int i /. 500.0)
                done))
      in
      let reads = ref 0 in
      while !reads < 200 do
        match Status.of_file path with
        | Ok v ->
          incr reads;
          Alcotest.(check string) "state while running" "running"
            v.Status.v_state;
          Alcotest.(check int) "chunk total stable" 64 v.Status.v_chunks_total
        | Error msg -> Alcotest.failf "torn or invalid snapshot: %s" msg
      done;
      List.iter Domain.join writers;
      Status.finalize t ~state:"completed";
      match Status.of_file path with
      | Error msg -> Alcotest.failf "final snapshot unreadable: %s" msg
      | Ok v ->
        Alcotest.(check string) "final state" "completed" v.Status.v_state;
        Alcotest.(check int) "all ticks pooled" (2 * 500 * 10)
          v.Status.v_points)

let test_status_finalize_idempotent () =
  with_tmp ".status" (fun path ->
      let tally = Tally.create () in
      let t = Status.create ~interval_s:0.0 ~space:"triangle" ~path tally in
      Tally.tick tally ~dom:0 ~points:10 ~survivors:1 ~frac:0.1;
      Status.finalize t ~state:"interrupted";
      (* Late ticks and a second finalize must not resurrect the run. *)
      Tally.tick tally ~dom:0 ~points:999 ~survivors:99 ~frac:0.9;
      Status.finalize t ~state:"completed";
      match Status.of_file path with
      | Error msg -> Alcotest.failf "cannot read status: %s" msg
      | Ok v ->
        Alcotest.(check string) "first finalize wins" "interrupted"
          v.Status.v_state;
        Alcotest.(check int) "late tick ignored" 10 v.Status.v_points)

let test_status_negative_interval_rejected () =
  Alcotest.check_raises "negative interval"
    (Invalid_argument "Status.create: interval must be non-negative") (fun () ->
      ignore (Status.create ~interval_s:(-1.0) ~path:"unused" (Tally.create ())))

(* ------------------------------------------------------------------ *)
(* Stats byte-identity: the heartbeat must not perturb the sweep       *)
(* ------------------------------------------------------------------ *)

let stats_json ?shard plan stats =
  Stats_io.to_json (Stats_io.of_stats ~plan ?shard stats)

let run_with_introspection ~plan ~runner =
  with_tmp ".status" (fun status_path ->
      with_tmp ".flight" (fun flight_path ->
          let cfg =
            {
              Run_config.default with
              Run_config.status = Some status_path;
              status_every_s = 0.0;
              flight = Some flight_path;
              run_id = Some "feedc0ffee12";
            }
          in
          let stats = ref None in
          ignore
            (Run_config.with_instrumentation ~space:plan.Plan.space_name
               ~engine:"staged" cfg (fun _ ->
                 stats := Some (runner ());
                 0));
          Option.get !stats))

let test_stats_identical_with_status_unsharded () =
  let plan = triangle_plan () in
  let plain = Engine_staged.run plan in
  let instrumented = run_with_introspection ~plan ~runner:(fun () ->
      Engine_staged.run plan)
  in
  Alcotest.(check string) "staged stats byte-identical"
    (stats_json plan plain)
    (stats_json plan instrumented)

let test_stats_identical_with_status_sharded () =
  let plan = triangle_plan () in
  let shard = { Stats_io.shard_index = 1; shard_of = 3 } in
  let sharded = Plan.chunk_outer plan ~index:1 ~of_:3 in
  let plain = Engine_parallel.run ~domains:2 sharded in
  let instrumented = run_with_introspection ~plan:sharded ~runner:(fun () ->
      Engine_parallel.run ~domains:2 sharded)
  in
  Alcotest.(check string) "sharded parallel stats byte-identical"
    (stats_json ~shard sharded plain)
    (stats_json ~shard sharded instrumented)

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                     *)
(* ------------------------------------------------------------------ *)

let mk_event ?(name = "ev") ?(ts = 0) ?(dom = 0) ?(args = []) () =
  {
    Obs.ev_name = name;
    ev_cat = "test";
    ev_ts_ns = ts;
    ev_dom = dom;
    ev_kind = Obs.Instant;
    ev_args = args;
  }

let test_flight_ring_wraps () =
  let fl = Flight.create ~capacity:4 () in
  for i = 1 to 10 do
    Flight.emit fl (mk_event ~name:(Printf.sprintf "ev%d" i) ~ts:i ())
  done;
  Alcotest.(check int) "bounded by capacity" 4 (Flight.event_count fl);
  Alcotest.(check (list string)) "keeps the most recent, oldest first"
    [ "ev7"; "ev8"; "ev9"; "ev10" ]
    (Array.to_list
       (Array.map (fun e -> e.Obs.ev_name) (Flight.events fl)))

let test_flight_capacity_validated () =
  Alcotest.check_raises "zero capacity"
    (Invalid_argument "Flight.create: capacity must be positive") (fun () ->
      ignore (Flight.create ~capacity:0 ()))

let test_flight_tee_forwards () =
  let fl = Flight.create ~capacity:2 () in
  let recorder = Recorder.create () in
  let sink = Flight.tee fl (Recorder.sink recorder) in
  for i = 1 to 5 do
    sink (mk_event ~name:(Printf.sprintf "ev%d" i) ~ts:i ())
  done;
  Alcotest.(check int) "ring keeps the tail" 2 (Flight.event_count fl);
  Alcotest.(check int) "inner sink sees everything" 5
    (Recorder.event_count recorder)

let test_flight_dump_round_trips () =
  with_tmp ".flight" (fun path ->
      let fl = Flight.create ~capacity:8 () in
      Flight.emit fl (mk_event ~name:"a" ~ts:1 ~args:[ ("k", Obs.Int 7) ] ());
      Flight.emit fl (mk_event ~name:"b" ~ts:2 ());
      Alcotest.(check int) "dump count" 2 (Flight.dump fl path);
      match Sink_jsonl.read_file path with
      | Error msg -> Alcotest.failf "dump unreadable: %s" msg
      | Ok events ->
        Alcotest.(check (list string)) "events round trip" [ "a"; "b" ]
          (Array.to_list (Array.map (fun e -> e.Obs.ev_name) events)))

(* ------------------------------------------------------------------ *)
(* Fatal fault injection: the crash path                               *)
(* ------------------------------------------------------------------ *)

(* Shape of an event stream with timing and domain ids stripped: what
   must be deterministic across two identical crashed runs. (Domain
   ids are process-global and monotonic in OCaml, so a second run in
   the same process sees fresh ones.) *)
let shape events =
  Array.to_list
    (Array.map
       (fun e -> (e.Obs.ev_name, e.Obs.ev_cat, e.Obs.ev_args)) events)

let crashed_flight_dump plan =
  with_tmp ".status" (fun status_path ->
      with_tmp ".flight" (fun flight_path ->
          let cfg =
            {
              Run_config.default with
              Run_config.status = Some status_path;
              status_every_s = 0.0;
              flight = Some flight_path;
              fault = Some (Run_config.Chunk_fatal { chunk = 1 });
              run_id = Some "feedc0ffee12";
            }
          in
          (match
             Run_config.with_instrumentation ~space:plan.Plan.space_name
               ~engine:"parallel" cfg (fun _ ->
                 ignore
                   (Engine_parallel.run_resumable
                      ~fault:(Run_config.Chunk_fatal { chunk = 1 })
                      ~domains:1 plan);
                 0)
           with
          | _ -> Alcotest.fail "fatal fault did not take the run down"
          | exception Failure _ -> ());
          (* The status file must record the crash... *)
          (match Status.of_file status_path with
          | Error msg -> Alcotest.failf "status unreadable: %s" msg
          | Ok v ->
            Alcotest.(check string) "status records the crash" "crashed"
              v.Status.v_state);
          (* ...and the flight dump must exist with the fatal event. *)
          match Sink_jsonl.read_file flight_path with
          | Error msg -> Alcotest.failf "flight dump unreadable: %s" msg
          | Ok events ->
            Alcotest.(check bool) "dump is non-empty" true
              (Array.length events > 0);
            Alcotest.(check bool) "chunk:fatal recorded" true
              (Array.exists (fun e -> e.Obs.ev_name = "chunk:fatal") events);
            shape events))

let test_fatal_fault_dumps_deterministic_flight () =
  let plan = triangle_plan () in
  let first = crashed_flight_dump plan in
  let second = crashed_flight_dump plan in
  Alcotest.(check int) "same event count" (List.length first)
    (List.length second);
  Alcotest.(check bool) "same event shapes in the same order" true
    (first = second)

let () =
  Alcotest.run "status"
    [
      ( "run_meta",
        [
          Alcotest.test_case "round trip" `Quick test_run_meta_round_trip;
          Alcotest.test_case "save, finalize, list" `Quick
            test_run_meta_save_finalize_list;
          Alcotest.test_case "list skips garbage" `Quick
            test_run_meta_list_skips_garbage;
          Alcotest.test_case "fresh id shape" `Quick test_fresh_id_shape;
        ] );
      ( "status",
        [
          Alcotest.test_case "snapshot fields" `Quick
            test_status_snapshot_fields;
          Alcotest.test_case "always parseable under concurrent ticks" `Quick
            test_status_always_parseable_concurrently;
          Alcotest.test_case "finalize idempotent" `Quick
            test_status_finalize_idempotent;
          Alcotest.test_case "negative interval rejected" `Quick
            test_status_negative_interval_rejected;
        ] );
      ( "byte-identity",
        [
          Alcotest.test_case "unsharded staged stats" `Quick
            test_stats_identical_with_status_unsharded;
          Alcotest.test_case "sharded parallel stats" `Quick
            test_stats_identical_with_status_sharded;
        ] );
      ( "flight",
        [
          Alcotest.test_case "ring wraps" `Quick test_flight_ring_wraps;
          Alcotest.test_case "capacity validated" `Quick
            test_flight_capacity_validated;
          Alcotest.test_case "tee forwards" `Quick test_flight_tee_forwards;
          Alcotest.test_case "dump round trips" `Quick
            test_flight_dump_round_trips;
        ] );
      ( "crash",
        [
          Alcotest.test_case "fatal fault dumps deterministic flight" `Quick
            test_fatal_fault_dumps_deterministic_flight;
        ] );
    ]
