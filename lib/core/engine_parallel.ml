open Beast_obs

(* Serialize survivor callbacks behind a mutex so user callbacks (Stats
   accumulation, CSV emission, ...) need not be thread-safe. The lookup
   passed to the callback reads the calling domain's own slot array, so
   it stays valid under the lock. *)
let serialized_on_hit on_hit =
  Option.map
    (fun f ->
      let m = Mutex.create () in
      fun lookup ->
        Mutex.lock m;
        Fun.protect ~finally:(fun () -> Mutex.unlock m) (fun () -> f lookup))
    on_hit

let default_chunks_per_domain = 8

(* Signal handlers may only do async-signal-safe work, so the handler
   installed by the CLI just flips this flag; workers poll it between
   chunks. A worker that sees the flag finishes the chunk it is running
   (the ledger only ever holds complete chunks) and stops stealing. *)
let stop_requested = Atomic.make false
let interrupt () = Atomic.set stop_requested true

(* The crash decision is drawn deterministically from (seed, chunk id,
   attempt) BEFORE the chunk runs, so a crashed attempt never invoked
   the survivor callback: retries keep on_hit exactly-once per
   surviving point. *)
let crashes ~prob ~seed ~chunk ~attempt =
  prob > 0.0
  && Random.State.float (Random.State.make [| seed; chunk; attempt |]) 1.0
     < prob

let max_crash_attempts = 1000

let run_resumable ?on_hit ?checkpoint ?resume ?fault ~domains (plan : Plan.t) :
    Engine_intf.outcome =
  if domains < 1 then invalid_arg "Engine_parallel.run_resumable: domains < 1";
  (match fault with
  | Some (Run_config.Chunk_crash { prob; _ })
    when prob < 0.0 || prob >= 1.0 ->
    invalid_arg "Engine_parallel.run_resumable: crash probability not in [0, 1)"
  | _ -> ());
  (* Reset the flag so a resumed run in the same process (tests, or a
     driver loop) does not inherit the interruption that produced the
     checkpoint it is resuming from. *)
  Atomic.set stop_requested false;
  let on_hit = serialized_on_hit on_hit in
  (* The chunk split arity is part of the checkpoint: a resume must
     reuse the file's split so chunk ids keep meaning the same blocks,
     even under a different domain count. *)
  let n_chunks =
    match resume with
    | Some (ck : Checkpoint.t) -> ck.Checkpoint.n_chunks
    | None -> domains * default_chunks_per_domain
  in
  let ledger = Array.make n_chunks None in
  (match resume with
  | None -> ()
  | Some ck ->
    List.iter
      (fun (id, stats) -> ledger.(id) <- Some stats)
      (Checkpoint.chunk_stats ck));
  let pending =
    Array.of_list
      (List.filter
         (fun id -> ledger.(id) = None)
         (List.init n_chunks Fun.id))
  in
  let cursor = Atomic.make 0 in
  let ledger_mutex = Mutex.create () in
  let completed =
    ref (n_chunks - Array.length pending) (* chunks carried in by resume *)
  in
  let registry = (Obs.current ()).Obs.metrics in
  let chunk_hist =
    Option.map
      (fun r ->
        Metrics.histogram r ~unit_:"ns" ~name:"chunk_duration_ns"
          ~labels:[ ("space", plan.Plan.space_name) ]
          ())
      registry
  in
  let ck_writes =
    Option.map
      (fun r ->
        Metrics.counter r ~name:"checkpoint_writes_total"
          ~labels:[ ("space", plan.Plan.space_name) ]
          ())
      registry
  in
  let crash_count =
    Option.map
      (fun r ->
        Metrics.counter r ~name:"chunk_crashes_total"
          ~labels:[ ("space", plan.Plan.space_name) ]
          ())
      registry
  in
  (* Callers hold [ledger_mutex]. *)
  let write_checkpoint sink =
    let entries = ref [] in
    Array.iteri
      (fun id s ->
        match s with None -> () | Some s -> entries := (id, s) :: !entries)
      ledger;
    Obs.with_span ~cat:"engine"
      ~args:[ ("completed", Obs.Int !completed); ("of", Obs.Int n_chunks) ]
      "checkpoint:write"
      (fun () ->
        Checkpoint.save sink.Engine_intf.ck_path
          (Checkpoint.make ~plan ?run_id:sink.Engine_intf.ck_run_id
             ~shard:sink.Engine_intf.ck_shard ~n_chunks
             ?metrics:(Checkpoint.run_metrics resume) !entries));
    Option.iter Metrics.incr ck_writes
  in
  let last_ck_ns = ref (Clock.now_ns ()) in
  let record_chunk id stats =
    Mutex.lock ledger_mutex;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock ledger_mutex)
      (fun () ->
        ledger.(id) <- Some stats;
        incr completed;
        Obs.chunk_tick ~completed:!completed ~total:n_chunks;
        match checkpoint with
        | Some sink
          when Clock.ns_to_s (Clock.now_ns () - !last_ck_ns)
               >= sink.Engine_intf.ck_every_s ->
          write_checkpoint sink;
          last_ck_ns := Clock.now_ns ()
        | _ -> ())
  in
  let run_chunk id =
    let chunk = Plan.chunk_outer plan ~index:id ~of_:n_chunks in
    let rec attempt k =
      if k > max_crash_attempts then
        failwith
          (Printf.sprintf
             "Engine_parallel: chunk %d crashed %d times in a row; giving up"
             id max_crash_attempts);
      match fault with
      | Some (Run_config.Chunk_crash { prob; seed })
        when crashes ~prob ~seed ~chunk:id ~attempt:k ->
        Obs.instant ~cat:"engine"
          ~args:[ ("chunk", Obs.Int id); ("attempt", Obs.Int k) ]
          "chunk:crash";
        Option.iter Metrics.incr crash_count;
        attempt (k + 1)
      | Some (Run_config.Chunk_fatal { chunk = fatal }) when fatal = id ->
        (* Unrecoverable by design: the event lands in the flight ring
           before the exception unwinds through Domain.join, so a
           post-mortem dump names the chunk that took the run down. *)
        Obs.instant ~cat:"engine"
          ~args:[ ("chunk", Obs.Int id) ]
          "chunk:fatal";
        failwith
          (Printf.sprintf
             "Engine_parallel: injected fatal fault on chunk %d" id)
      | _ -> Engine_staged.run ?on_hit chunk
    in
    attempt 0
  in
  let worker dom () =
    let rec steal () =
      if not (Atomic.get stop_requested) then begin
        let i = Atomic.fetch_and_add cursor 1 in
        if i < Array.length pending then begin
          let id = pending.(i) in
          let t0 = Clock.now_ns () in
          let s =
            Obs.with_span ~cat:"engine"
              ~args:
                [
                  ("chunk", Obs.Int id);
                  ("of", Obs.Int n_chunks);
                  ("domain", Obs.Int dom);
                ]
              "sweep:chunk"
              (fun () ->
                (* A raising chunk (an injected fatal fault, a zero range
                   step, a division by zero) stops the other workers at
                   their next chunk boundary, so the error surfaces
                   without the rest of the space being swept. *)
                match run_chunk id with
                | s -> s
                | exception e ->
                  Atomic.set stop_requested true;
                  raise e)
          in
          Option.iter
            (fun h -> Metrics.record h (Clock.now_ns () - t0))
            chunk_hist;
          record_chunk id s;
          steal ()
        end
      end
    in
    steal ()
  in
  let sweep () =
    (* The resumed count is reported up front so the reporter treats it
       as the base, not as throughput observed this run. *)
    Obs.chunk_tick ~completed:!completed ~total:n_chunks;
    let spawned = List.init domains (fun dom -> Domain.spawn (worker dom)) in
    (* Join every domain before re-raising a chunk's exception: a domain
       left running would finish its chunk and could set
       [stop_requested] after the next sweep in this process reset it. *)
    let failures =
      List.filter_map
        (fun d ->
          match Domain.join d with
          | () -> None
          | exception e -> Some (e, Printexc.get_raw_backtrace ()))
        spawned
    in
    match failures with
    | (e, bt) :: _ -> Printexc.raise_with_backtrace e bt
    | [] -> ()
  in
  Obs.with_span ~cat:"engine"
    ~args:
      [
        ("space", Obs.Str plan.Plan.space_name);
        ("domains", Obs.Int domains);
        ("chunks", Obs.Int n_chunks);
        ("resumed", Obs.Int (n_chunks - Array.length pending));
      ]
    "sweep:parallel" sweep;
  if !completed < n_chunks then begin
    (* Interrupted: flush a final checkpoint so nothing drained is
       lost, even if the periodic timer never fired. *)
    (match checkpoint with
    | Some sink ->
      Mutex.lock ledger_mutex;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock ledger_mutex)
        (fun () -> write_checkpoint sink)
    | None -> ());
    Engine_intf.Interrupted { completed = !completed; total = n_chunks }
  end
  else begin
    (* Merging is commutative and associative, so a resumed run sums to
       the same stats bytes as an uninterrupted one. *)
    Engine_intf.Finished
      (Engine.merge_blocks
         ~depth0:(Plan.depth0_constraints plan)
         (Array.to_list (Array.map Option.get ledger)))
  end

let run ?on_hit ~domains plan =
  match run_resumable ?on_hit ~domains plan with
  | Engine_intf.Finished stats -> stats
  | Engine_intf.Interrupted _ -> failwith "Engine_parallel.run: interrupted"
