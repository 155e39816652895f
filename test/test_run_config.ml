(* Run_config validation: the shard-bounds bugfix plus the new
   checkpoint/fault knobs. *)

open Beast_core

let contains ~sub s =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let expect_error what cfg sub =
  match Run_config.validate cfg with
  | Ok () -> Alcotest.failf "%s was accepted" what
  | Error msg ->
    Alcotest.(check bool)
      (Printf.sprintf "%s message mentions %S (got %S)" what sub msg)
      true (contains ~sub msg)

let expect_ok what cfg =
  match Run_config.validate cfg with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s rejected: %s" what msg

let test_default_validates () = expect_ok "default" Run_config.default

let test_shard_bounds () =
  let with_shard shard = { Run_config.default with Run_config.shard } in
  expect_ok "0/1" (with_shard (Some (0, 1)));
  expect_ok "2/3" (with_shard (Some (2, 3)));
  expect_error "index = count" (with_shard (Some (3, 3))) "below the shard count";
  expect_error "index > count" (with_shard (Some (7, 3))) "below the shard count";
  expect_error "negative index" (with_shard (Some (-1, 3))) "non-negative";
  expect_error "zero count" (with_shard (Some (0, 0))) "must be positive";
  expect_error "negative count" (with_shard (Some (0, -2))) "must be positive"

let test_checkpoint_interval () =
  let with_every checkpoint_every_s =
    {
      Run_config.default with
      Run_config.checkpoint = Some "ck.json";
      checkpoint_every_s;
    }
  in
  expect_ok "positive interval" (with_every 0.1);
  expect_error "zero interval" (with_every 0.0) "checkpoint";
  expect_error "negative interval" (with_every (-1.0)) "checkpoint"

let test_fault_probability () =
  let with_fault prob =
    {
      Run_config.default with
      Run_config.fault = Some (Run_config.Chunk_crash { prob; seed = 42 });
    }
  in
  expect_ok "prob 0" (with_fault 0.0);
  expect_ok "prob 0.5" (with_fault 0.5);
  expect_error "prob 1.0" (with_fault 1.0) "[0, 1)";
  expect_error "prob 1.5" (with_fault 1.5) "[0, 1)";
  expect_error "negative prob" (with_fault (-0.1)) "[0, 1)"

let test_metrics_enabled () =
  Alcotest.(check bool) "off by default" false
    (Run_config.metrics_enabled Run_config.default);
  Alcotest.(check bool) "on with --metrics" true
    (Run_config.metrics_enabled
       { Run_config.default with Run_config.metrics = true });
  Alcotest.(check bool) "implied by --metrics-out" true
    (Run_config.metrics_enabled
       { Run_config.default with Run_config.metrics_out = Some "m.prom" })


(* ------------------------------------------------------------------ *)
(* The instrumented-path decision, one row per configuration           *)
(* ------------------------------------------------------------------ *)

let with_files f =
  let files =
    List.map (fun ext -> Filename.temp_file "beast_rc" ext)
      [ ".trace"; ".flight"; ".prom"; ".explain" ]
  in
  let runs = Filename.temp_file "beast_rc" ".runs" in
  Sys.remove runs;
  Fun.protect
    ~finally:(fun () ->
      let rm p = try Sys.remove p with Sys_error _ -> () in
      List.iter rm files;
      if Sys.file_exists runs then begin
        Array.iter (fun f -> rm (Filename.concat runs f)) (Sys.readdir runs);
        Unix.rmdir runs
      end)
    (fun () -> f (files @ [ runs ]))

(* Each row: the config, and whether the run is instrumented (engines
   compile their timing/sampling paths), traced (a sink receives
   events) and explained (the context holds a provenance collector);
   one context carries all three. Flight
   and the run record are coarse consumers: they ride on the plain
   path. *)
let matrix ~trace ~flight ~runs ~metrics_out ~explain_out =
  let d = Run_config.default in
  [
    ("plain", d, false, false, false);
    ("trace", { d with Run_config.trace = Some trace }, true, true, false);
    ("flight", { d with Run_config.flight = Some flight }, false, true, false);
    ("runs", { d with Run_config.runs_dir = Some runs }, false, false, false);
    ("progress", { d with Run_config.progress = true }, true, false, false);
    ( "metrics",
      { d with Run_config.metrics_out = Some metrics_out },
      true, false, false );
    ( "explain_out",
      { d with Run_config.explain_out = Some explain_out },
      false, false, true );
    ( "runs+flight",
      { d with Run_config.runs_dir = Some runs; flight = Some flight },
      false, true, false );
    ( "trace+flight",
      { d with Run_config.trace = Some trace; flight = Some flight },
      true, true, false );
    ( "trace+explain_out",
      { d with Run_config.trace = Some trace; explain_out = Some explain_out },
      true, true, true );
    ( "progress+runs",
      { d with Run_config.progress = true; runs_dir = Some runs },
      true, false, false );
  ]

let nothing_installed what =
  Alcotest.(check bool) (what ^ ": no sink") false (Beast_obs.Obs.enabled ());
  Alcotest.(check bool)
    (what ^ ": not instrumenting")
    false
    (Engine.Run.instrumenting ());
  Alcotest.(check bool)
    (what ^ ": no collector")
    true
    ((Beast_obs.Obs.current ()).Beast_obs.Obs.provenance = None)

let run_id = "0123456789ab"

let run_with cfg f =
  ignore
    (Run_config.with_instrumentation ~space:"triangle" ~engine:"staged"
       { cfg with Run_config.run_id = Some run_id }
       (fun _ ->
         f ();
         0))

(* With --runs, the record's state and exit code as [beast top] reads
   them, removing the file so the next run must write it afresh. *)
let take_record cfg =
  Option.map
    (fun dir ->
      let path = Filename.concat dir (run_id ^ ".json") in
      match Beast_obs.Status.of_file path with
      | Error msg -> Alcotest.failf "%s: %s" path msg
      | Ok r ->
        Sys.remove path;
        (Beast_obs.Status.state_name r.Beast_obs.Status.state, r.exit_code))
    cfg.Run_config.runs_dir

let test_decision_table () =
  with_files (function
    | [ trace; flight; metrics_out; explain_out; runs ] ->
      List.iter
        (fun (name, cfg, instrumented, traced, explained) ->
          nothing_installed (name ^ " before");
          let record_at_start = ref None in
          run_with cfg (fun () ->
              record_at_start := take_record cfg;
              Alcotest.(check bool)
                (name ^ ": instrumented")
                instrumented
                (Engine.Run.instrumenting ());
              Alcotest.(check bool)
                (name ^ ": traced") traced (Beast_obs.Obs.enabled ());
              Alcotest.(check bool)
                (name ^ ": explained")
                explained (Provenance.enabled ()));
          let record = Alcotest.(option (pair string (option int))) in
          let with_runs v = Option.map (fun _ -> v) cfg.Run_config.runs_dir in
          Alcotest.check record (name ^ ": record at start")
            (with_runs ("running", None))
            !record_at_start;
          Alcotest.check record (name ^ ": record after return")
            (with_runs ("completed", Some 0))
            (take_record cfg);
          nothing_installed (name ^ " after return");
          (match run_with cfg (fun () -> failwith "boom") with
          | () -> Alcotest.failf "%s: the callback's exception was lost" name
          | exception Failure _ -> ());
          Alcotest.check record (name ^ ": record after raise")
            (with_runs ("crashed", Some 125))
            (take_record cfg);
          nothing_installed (name ^ " after raise"))
        (matrix ~trace ~flight ~runs ~metrics_out ~explain_out)
    | _ -> assert false)

(* An output that cannot be written fails the call before anything is
   installed or written: a refused run leaves existing files as they
   were, whether a probed path or the run record refused it. *)
let test_failed_open_installs_nothing () =
  with_files (function
    | trace :: _ :: metrics_out :: _ ->
      let old = "previous contents\n" in
      let refused what cfg =
        List.iter
          (fun file ->
            Out_channel.with_open_bin file (fun oc -> output_string oc old))
          [ trace; metrics_out ];
        (match run_with cfg (fun () -> Alcotest.fail "the callback ran") with
        | () -> Alcotest.failf "%s was accepted" what
        | exception Sys_error _ -> ());
        List.iter
          (fun file ->
            Alcotest.(check string)
              (what ^ ": " ^ file ^ " kept")
              old
              (In_channel.with_open_bin file In_channel.input_all))
          [ trace; metrics_out ];
        nothing_installed ("after " ^ what)
      in
      let cfg =
        {
          Run_config.default with
          Run_config.trace = Some trace;
          progress = true;
        }
      in
      refused "an unwritable --metrics-out"
        { cfg with Run_config.metrics_out = Some "/nonexistent/m.prom" };
      refused "a --runs dir under a regular file"
        {
          cfg with
          Run_config.metrics_out = Some metrics_out;
          runs_dir = Some (Filename.concat trace "runs");
        }
    | _ -> assert false)

let () =
  Alcotest.run "run_config"
    [
      ( "validate",
        [
          Alcotest.test_case "default ok" `Quick test_default_validates;
          Alcotest.test_case "shard bounds" `Quick test_shard_bounds;
          Alcotest.test_case "checkpoint interval" `Quick
            test_checkpoint_interval;
          Alcotest.test_case "fault probability" `Quick test_fault_probability;
          Alcotest.test_case "metrics_enabled" `Quick test_metrics_enabled;
        ] );
      ( "install",
        [
          Alcotest.test_case "decision table" `Quick test_decision_table;
          Alcotest.test_case "failed open installs nothing" `Quick
            test_failed_open_installs_nothing;
        ] );
    ]
