(* One record for everything a `beast` run can be configured with beyond
   the space itself: observability (trace/progress/metrics/run record/
   flight), sharding, and the checkpoint/resume/fault-injection settings
   of long-running sweeps. The CLI builds the record once per invocation
   and threads it through sweep/tune/funnel/search instead of growing
   each subcommand a private pile of optional arguments. *)

open Beast_obs

type trace_format =
  | Jsonl
  | Chrome
  | Summary

type fault =
  | Chunk_crash of { prob : float; seed : int }
  | Chunk_fatal of { chunk : int }

type t = {
  trace : string option;
  trace_format : trace_format;
  progress : bool;
  metrics : bool;
  metrics_out : string option;
  shard : (int * int) option;
  propagate : bool option;
  checkpoint : string option;
  checkpoint_every_s : float;
  resume : string option;
  fault : fault option;
  explain_out : string option;
  run_id : string option;
  runs_dir : string option;
  status_every_s : float;
  flight : string option;
  archive : bool;
  archive_dir : string option;
}

let default =
  {
    trace = None;
    trace_format = Chrome;
    progress = false;
    metrics = false;
    metrics_out = None;
    shard = None;
    propagate = None;
    checkpoint = None;
    checkpoint_every_s = 5.0;
    resume = None;
    fault = None;
    explain_out = None;
    run_id = None;
    runs_dir = None;
    status_every_s = 1.0;
    flight = None;
    archive = false;
    archive_dir = None;
  }

let metrics_enabled t = t.metrics || t.metrics_out <> None

let introspected t =
  t.runs_dir <> None || t.flight <> None
  || t.trace <> None || t.run_id <> None || t.archive

(* The shard bounds used to be checked only by the CLI argument parser;
   a config built programmatically (or a future config file) could slip
   an out-of-range shard through and silently sweep an empty space.
   Everything funnels through here now. *)
let validate_shard = function
  | None -> Ok ()
  | Some (_, n) when n <= 0 ->
    Error (Printf.sprintf "shard: the shard count N must be positive (got N = %d)" n)
  | Some (i, n) when i < 0 ->
    Error
      (Printf.sprintf
         "shard %d/%d: the shard index must be non-negative" i n)
  | Some (i, n) when i >= n ->
    Error
      (Printf.sprintf
         "shard %d/%d: the shard index must be below the shard count \
          (need 0 <= I < N)"
         i n)
  | Some _ -> Ok ()

let validate t =
  let ( let* ) r f = Result.bind r f in
  let* () = validate_shard t.shard in
  let* () =
    if t.checkpoint_every_s <= 0.0 then
      Error
        (Printf.sprintf "checkpoint-every: need a positive period (got %g)"
           t.checkpoint_every_s)
    else Ok ()
  in
  let* () =
    if t.status_every_s < 0.0 then
      Error
        (Printf.sprintf "status-every: need a non-negative period (got %g)"
           t.status_every_s)
    else Ok ()
  in
  let* () =
    match t.fault with
    | Some (Chunk_crash { prob; _ }) when prob < 0.0 || prob >= 1.0 ->
      Error
        (Printf.sprintf
           "fault-inject: the crash probability must lie in [0, 1) (got %g); \
            at 1 no chunk could ever complete"
           prob)
    | Some (Chunk_fatal { chunk }) when chunk < 0 ->
      Error
        (Printf.sprintf
           "fault-inject: the fatal chunk id must be non-negative (got %d)"
           chunk)
    | _ -> Ok ()
  in
  (* A resumed run skips the chunks the checkpoint already completed, so
     its provenance would describe only the tail of the sweep — silently
     wrong attribution. Re-run without --resume to explain a space. *)
  if t.explain_out <> None && t.resume <> None then
    Error
      "explain-out: provenance needs a full sweep; it cannot be combined \
       with --resume (the checkpointed chunks would be missing from the \
       attribution)"
  else Ok ()

(* How a run ended, decided once for the run record: from the callback's
   exit code, or [Crashed] when it raised, recorded with the code the CLI
   exits with: 1 for a failed file operation ([Sys_error]), 125 (an
   uncaught exception) for anything else. *)
let outcome = function
  | Ok 0 -> (Status.Completed, 0)
  | Ok 3 -> (Status.Interrupted, 3)
  | Ok code -> (Status.Crashed, code)
  | Error (Sys_error _, _) -> (Status.Crashed, 1)
  | Error _ -> (Status.Crashed, 125)

let mint_run_id ~space t =
  match t.run_id with
  | Some _ as id -> id
  | None when introspected t ->
    let shard =
      match t.shard with
      | None -> "0/1"
      | Some (i, n) -> Printf.sprintf "%d/%d" i n
    in
    Some (Status.fresh_id ~seed:(space ^ "|" ^ shard) ())
  | None -> None

let checkpoint_path t =
  match t.checkpoint with Some _ as p -> p | None -> t.resume

let write_trace t (file, r) =
  let events = Recorder.events r in
  Jsonx.write_with file (fun oc ->
      match t.trace_format with
      | Jsonl -> Sink_jsonl.write oc events
      | Chrome ->
        output_string oc
          (Sink_chrome.render ~start_ns:(Recorder.start_ns r) events)
      | Summary ->
        Sink_summary.write (Format.formatter_of_out_channel oc) events);
  Format.eprintf "wrote %d trace events to %s@." (Array.length events) file

let with_instrumentation ?(outputs = []) ~space ~engine t f =
  (* Every file the run writes is probed, and the run record written,
     before anything is installed: a bad path fails up front with no
     file touched, instead of discarding a completed run at the end. *)
  let checkpoint_path = checkpoint_path t in
  List.iter Jsonx.check_writable
    (outputs
    @ List.filter_map Fun.id
        [ t.explain_out; checkpoint_path; t.flight; t.trace; t.metrics_out ]);
  let run_id = mint_run_id ~space t in
  let tally =
    if t.progress || t.runs_dir <> None then Some (Tally.create ()) else None
  in
  let record =
    match (t.runs_dir, run_id, tally) with
    | Some dir, Some run_id, Some tally ->
      Some
        (Status.create ~interval_s:t.status_every_s ?shard:t.shard
           ?checkpoint_path ~dir ~run_id ~space ~engine tally)
    | _ -> None
  in
  let trace = Option.map (fun file -> (file, Recorder.create ())) t.trace in
  let flight = Option.map (fun file -> (file, Flight.create ())) t.flight in
  let registry = if metrics_enabled t then Some (Metrics.create ()) else None in
  let reporter = if t.progress then Option.map Progress.create tally else None in
  let ctx =
    {
      Obs.sink =
        (match (trace, flight) with
        | None, None -> None
        | Some (_, r), None -> Some (Recorder.sink r)
        | None, Some (_, fl) -> Some (Flight.sink fl)
        | Some (_, r), Some (_, fl) -> Some (Flight.tee fl (Recorder.sink r)));
      (* A flight ring or a run record alone keeps the plain path:
         they want the run's final moments and once-per-chunk ticks, and
         must not slow the sweep down. *)
      instrumented = trace <> None || t.progress || registry <> None;
      tally;
      metrics = registry;
    }
  in
  let run () =
    (* Stamp the run's identity into the event stream itself, so traces
       and flight dumps stay attributable after files are renamed — and
       so [beast merge --traces] can recover real shard coordinates
       instead of trusting argument order. *)
    Obs.instant ~cat:"run"
      ~args:
        ((match run_id with None -> [] | Some id -> [ ("run_id", Obs.Str id) ])
        @ [ ("space", Obs.Str space) ]
        @
        match t.shard with
        | None -> []
        | Some (i, n) -> [ ("shard_index", Obs.Int i); ("shard_of", Obs.Int n) ]
        )
      "run:meta";
    (* The caller reads the collector (Provenance.current) inside [f]:
       the explain file needs the plan and shard tag, which only it has. *)
    if t.explain_out = None then f run_id
    else Provenance.with_current (Provenance.create ()) (fun () -> f run_id)
  in
  let result =
    match Obs.with_context ctx run with
    | code -> Ok code
    | exception e -> Error (e, Printexc.get_raw_backtrace ())
  in
  Option.iter Progress.finish reporter;
  (* The end-of-run files go before the record is finalized, so a failed
     write is in its exit code; the run's own exception wins over it. *)
  let attempt result write =
    match write () with
    | () -> result
    | exception (Sys_error _ as e) when Result.is_ok result ->
      Error (e, Printexc.get_raw_backtrace ())
    | exception Sys_error _ -> result
  in
  let result =
    List.fold_left attempt result
      [
        (fun () ->
          match (registry, t.metrics_out) with
          | Some r, Some file ->
            Jsonx.write_file file
              (Metrics.Snapshot.to_prometheus (Metrics.snapshot r));
            Format.eprintf "wrote metrics to %s@." file
          | _ -> ());
        (fun () ->
          Option.iter
            (fun (file, fl) ->
              let n = Flight.dump fl file in
              Format.eprintf "wrote flight recording (%d events) to %s@." n
                file)
            flight);
        (fun () -> Option.iter (write_trace t) trace);
      ]
  in
  let ended, exit_code = outcome result in
  Option.iter (fun r -> Status.finalize r ~state:ended ~exit_code) record;
  match result with
  | Ok code -> code
  | Error (e, bt) -> Printexc.raise_with_backtrace e bt
