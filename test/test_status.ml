(* Live-introspection layer: the run record, the flight recorder and
   the fatal-fault crash path.

   The load-bearing properties: a run record is *always* a complete
   parseable document no matter when a reader samples it (atomic
   temp-then-rename under concurrent ticks), turning it on never
   changes the sweep's statistics (byte-identical --stats-out), and a
   crashed run leaves a deterministic flight dump behind. *)

open Beast_core
open Beast_obs

let triangle_plan () = Plan.make_exn (Support.triangle_space ())

let rm path = try Sys.remove path with Sys_error _ -> ()

let with_tmp suffix f =
  let path = Filename.temp_file "beast_status" suffix in
  Fun.protect ~finally:(fun () -> rm path) (fun () -> f path)

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

let read path =
  match Status.of_file path with
  | Ok r -> r
  | Error msg -> Alcotest.failf "cannot read %s: %s" path msg

let state_name r = Status.state_name r.Status.state

(* ------------------------------------------------------------------ *)
(* The record's identity, persistence and listing                      *)
(* ------------------------------------------------------------------ *)

let test_record_round_trip () =
  let r =
    {
      Status.state = Status.Running;
      run_id = "deadbeef0123";
      space = "triangle";
      shard = Some (1, 3);
      engine = "parallel";
      pid = 4242;
      exit_code = None;
      elapsed_s = 1.5;
      chunks_done = 2;
      chunks_total = 8;
      points = 150;
      survivors = 15;
      points_per_s = 100.0;
      survivor_rate = 0.1;
      eta_s = Some 4.5;
      checkpoint_age_s = None;
      domains = [ (0, 100, 10); (1, 50, 5) ];
    }
  in
  let to_json r = Jsonx.pretty (Status.to_jsonx r) in
  match Status.of_json (to_json r) with
  | Error msg -> Alcotest.failf "round trip failed: %s" msg
  | Ok r' ->
    Alcotest.(check string) "byte-stable re-encoding" (to_json r) (to_json r');
    Alcotest.(check bool) "every field read back" true (r = r')

let test_record_save_finalize_list () =
  with_tmp_dir (fun dir ->
      let create run_id ?shard engine =
        Status.create ~dir ~run_id ~space:"triangle" ?shard ~engine
          (Tally.create ())
      in
      let _a = create "aaaaaaaaaaaa" "staged" in
      let b = create "bbbbbbbbbbbb" ~shard:(0, 2) "parallel" in
      Alcotest.(check string) "path is DIR/RUN_ID.json"
        (Filename.concat dir "bbbbbbbbbbbb.json")
        (Status.path b);
      Status.finalize b ~state:Status.Interrupted ~exit_code:3;
      match Status.entries ~dir with
      | [ (_, Ok x); (_, Ok y) ] ->
        Alcotest.(check string) "sorted by run id" "aaaaaaaaaaaa"
          x.Status.run_id;
        Alcotest.(check string) "unfinalized record still running" "running"
          (state_name x);
        Alcotest.(check bool) "no exit code while running" true
          (x.Status.exit_code = None);
        Alcotest.(check string) "finalized state read back" "interrupted"
          (state_name y);
        Alcotest.(check bool) "exit code read back" true
          (y.Status.exit_code = Some 3);
        Alcotest.(check bool) "shard read back" true
          (y.Status.shard = Some (0, 2))
      | l -> Alcotest.failf "expected 2 readable records, got %d" (List.length l))

(* The start-and-exit manifest this record replaced. *)
let old_manifest =
  {|{ "beast_run": 1, "run_id": "dddddddddddd", "space": "triangle",
  "engine": "staged", "pid": 1, "status": "completed", "exit_code": 0,
  "wall_s": 0.5 }|}

let test_record_list_skips_garbage () =
  with_tmp_dir (fun dir ->
      let _r =
        Status.create ~dir ~run_id:"cccccccccccc" ~space:"triangle"
          ~engine:"staged" (Tally.create ())
      in
      List.iter
        (fun (name, text) ->
          Out_channel.with_open_bin (Filename.concat dir name) (fun oc ->
              output_string oc text))
        [
          ("junk.json", "{ not json");
          ("dddddddddddd.json", old_manifest);
          ("other.json", {|{ "bench": "x" }|});
        ];
      let entries = Status.entries ~dir in
      Alcotest.(check int) "every .json file listed" 4 (List.length entries);
      Alcotest.(check (list string)) "only the record is readable"
        [ "cccccccccccc" ]
        (List.filter_map
           (fun (_, r) -> Option.map (fun r -> r.Status.run_id) (Result.to_option r))
           entries);
      Alcotest.(check int) "absent directory is empty" 0
        (List.length (Status.entries ~dir:(dir ^ ".does-not-exist"))))

let test_fresh_id_shape () =
  let a = Status.fresh_id ~seed:"s" () in
  let b = Status.fresh_id ~seed:"s" () in
  Alcotest.(check int) "12 hex chars" 12 (String.length a);
  String.iter
    (fun c ->
      Alcotest.(check bool) "hex digit" true
        (match c with '0' .. '9' | 'a' .. 'f' -> true | _ -> false))
    a;
  Alcotest.(check bool) "nonce makes same-seed ids distinct" true (a <> b)

(* ------------------------------------------------------------------ *)
(* The heartbeat                                                       *)
(* ------------------------------------------------------------------ *)

let test_status_snapshot_fields () =
  with_tmp_dir (fun dir ->
      let tally = Tally.create () in
      let st =
        Status.create ~interval_s:0.0 ~dir ~run_id:"deadbeef0123"
          ~space:"triangle" ~shard:(1, 3) ~engine:"parallel" tally
      in
      Tally.chunk_tick tally ~completed:0 ~total:8;
      Tally.tick tally ~dom:0 ~points:100 ~survivors:10 ~frac:0.5;
      Tally.tick tally ~dom:1 ~points:50 ~survivors:5 ~frac:0.25;
      Tally.chunk_tick tally ~completed:2 ~total:8;
      let r = read (Status.path st) in
      Alcotest.(check string) "state" "running" (state_name r);
      Alcotest.(check string) "run id" "deadbeef0123" r.Status.run_id;
      Alcotest.(check string) "engine" "parallel" r.Status.engine;
      Alcotest.(check bool) "shard" true (r.Status.shard = Some (1, 3));
      Alcotest.(check int) "chunks done" 2 r.Status.chunks_done;
      Alcotest.(check int) "chunks total" 8 r.Status.chunks_total;
      Alcotest.(check int) "points pooled" 150 r.Status.points;
      Alcotest.(check int) "survivors pooled" 15 r.Status.survivors;
      Alcotest.(check (list (triple int int int))) "per-domain rows sorted"
        [ (0, 100, 10); (1, 50, 5) ]
        r.Status.domains;
      Alcotest.(check (list string)) "no stray tmp file" [ "deadbeef0123.json" ]
        (Array.to_list (Sys.readdir dir)))

let test_status_always_parseable_concurrently () =
  (* Writers hammer the file with interval 0 (a rewrite per tick) while
     the main domain samples it: every successful read must be a
     complete, schema-valid document — the atomicity claim. *)
  with_tmp_dir (fun dir ->
      let tally = Tally.create () in
      let t =
        Status.create ~interval_s:0.0 ~dir ~run_id:"aaaaaaaaaaaa"
          ~space:"triangle" ~engine:"parallel" tally
      in
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
        match Status.of_file (Status.path t) with
        | Ok r ->
          incr reads;
          Alcotest.(check string) "state while running" "running"
            (state_name r);
          Alcotest.(check int) "chunk total stable" 64 r.Status.chunks_total
        | Error msg -> Alcotest.failf "torn or invalid snapshot: %s" msg
      done;
      List.iter Domain.join writers;
      Status.finalize t ~state:Status.Completed ~exit_code:0;
      let r = read (Status.path t) in
      Alcotest.(check string) "final state" "completed" (state_name r);
      Alcotest.(check int) "all ticks pooled" (2 * 500 * 10) r.Status.points)

let test_status_finalize_idempotent () =
  with_tmp_dir (fun dir ->
      let tally = Tally.create () in
      let t =
        Status.create ~interval_s:0.0 ~dir ~run_id:"aaaaaaaaaaaa"
          ~space:"triangle" ~engine:"staged" tally
      in
      Tally.tick tally ~dom:0 ~points:10 ~survivors:1 ~frac:0.1;
      Status.finalize t ~state:Status.Interrupted ~exit_code:3;
      (* Late ticks and a second finalize must not resurrect the run. *)
      Tally.tick tally ~dom:0 ~points:999 ~survivors:99 ~frac:0.9;
      Status.finalize t ~state:Status.Completed ~exit_code:0;
      let r = read (Status.path t) in
      Alcotest.(check string) "first finalize wins" "interrupted"
        (state_name r);
      Alcotest.(check bool) "first exit code wins" true
        (r.Status.exit_code = Some 3);
      Alcotest.(check int) "late tick ignored" 10 r.Status.points)

let test_status_negative_interval_rejected () =
  Alcotest.check_raises "negative interval"
    (Invalid_argument "Status.create: interval must be non-negative") (fun () ->
      ignore
        (Status.create ~interval_s:(-1.0) ~dir:"unused" ~run_id:"x"
           ~space:"triangle" ~engine:"staged" (Tally.create ())));
  Alcotest.(check bool) "nothing created" false (Sys.file_exists "unused")

(* ------------------------------------------------------------------ *)
(* Stats byte-identity: the heartbeat must not perturb the sweep       *)
(* ------------------------------------------------------------------ *)

let stats_json ?shard plan stats =
  Stats_io.to_json (Stats_io.of_stats ~plan ?shard stats)

(* Runs [runner] under the run record and the flight recorder; the
   final record must read "completed" and the flight dump must hold at
   least one event. *)
let run_with_introspection ~plan ~runner =
  with_tmp_dir (fun dir ->
      with_tmp ".flight" (fun flight_path ->
          let cfg =
            {
              Run_config.default with
              Run_config.runs_dir = Some dir;
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
          let r = read (Filename.concat dir "feedc0ffee12.json") in
          Alcotest.(check string) "final state" "completed" (state_name r);
          Alcotest.(check bool) "exit code 0" true (r.Status.exit_code = Some 0);
          (match Sink_jsonl.read_file flight_path with
          | Error msg -> Alcotest.failf "flight dump unreadable: %s" msg
          | Ok events ->
            Alcotest.(check bool) "flight dump non-empty" true
              (Array.length events > 0));
          Option.get !stats))

let test_stats_identical_with_status_unsharded () =
  List.iter
    (fun plan ->
      let plain = Engine_staged.run plan in
      let instrumented =
        run_with_introspection ~plan ~runner:(fun () -> Engine_staged.run plan)
      in
      Alcotest.(check string)
        (plan.Plan.space_name ^ ": staged stats byte-identical")
        (stats_json plan plain)
        (stats_json plan instrumented))
    [
      triangle_plan ();
      Plan.make_exn (Support.gemm_space ~max_dim:20 ~max_threads:96);
    ]

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
  with_tmp_dir (fun dir ->
      with_tmp ".flight" (fun flight_path ->
          let cfg =
            {
              Run_config.default with
              Run_config.runs_dir = Some dir;
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
          (* The run record must hold the crash... *)
          let r = read (Filename.concat dir "feedc0ffee12.json") in
          Alcotest.(check string) "record holds the crash" "crashed"
            (state_name r);
          Alcotest.(check bool) "exit code 125" true
            (r.Status.exit_code = Some 125);
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
          Alcotest.test_case "round trip" `Quick test_record_round_trip;
          Alcotest.test_case "save, finalize, list" `Quick
            test_record_save_finalize_list;
          Alcotest.test_case "list skips garbage" `Quick
            test_record_list_skips_garbage;
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
