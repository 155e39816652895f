open Beast_core
open Beast_obs

type candidate = {
  score : float;
  bindings : (string * Value.t) list;
}

type result = {
  best : candidate option;
  top : candidate list;
  evaluated : int;
  failed : int;
  stats : Engine.stats;
  elapsed_s : float;
}

(* Insert into a best-first list capped at [n]; n is small (default 10),
   so linear insertion is fine even for hundreds of thousands of
   survivors. *)
let insert_top n candidate top =
  let rec go = function
    | [] -> [ candidate ]
    | c :: rest ->
      if candidate.score > c.score then candidate :: c :: rest
      else c :: go rest
  in
  let inserted = go top in
  if List.length inserted > n then List.filteri (fun i _ -> i < n) inserted
  else inserted

exception Benchmark_timeout

(* SIGALRM-based wall-clock guard around one objective call. The engines
   serialize survivor callbacks behind a global mutex, so at most one
   timer is armed at a time even under the parallel scheduler; delivery
   to a worker domain is best-effort (see the .mli), which is why the
   CLI pairs --timeout with the sequential default engine. *)
let with_timeout timeout_s f =
  match timeout_s with
  | None -> f ()
  | Some secs ->
    let previous =
      Sys.signal Sys.sigalrm
        (Sys.Signal_handle (fun _ -> raise Benchmark_timeout))
    in
    let arm v =
      ignore
        (Unix.setitimer Unix.ITIMER_REAL
           { Unix.it_interval = 0.0; it_value = v })
    in
    Fun.protect
      ~finally:(fun () ->
        arm 0.0;
        Sys.set_signal Sys.sigalrm previous)
      (fun () ->
        arm secs;
        f ())

(* Retry-with-backoff around a failing (raising or timing-out)
   objective: a pathological configuration is skipped after
   [retries + 1] attempts instead of wedging the whole campaign. *)
let guarded ~timeout_s ~retries ~backoff_s ~on_retry objective lookup =
  let rec attempt k =
    match with_timeout timeout_s (fun () -> objective lookup) with
    | score -> Some score
    | exception e ->
      Obs.instant ~cat:"tune"
        ~args:
          [
            ("attempt", Obs.Int k); ("error", Obs.Str (Printexc.to_string e));
          ]
        "benchmark:fail";
      if k < retries then begin
        on_retry ();
        Unix.sleepf (backoff_s *. (2.0 ** float_of_int k));
        attempt (k + 1)
      end
      else None
  in
  attempt 0

let default_engine = Engine_registry.staged

let tune ?(engine = default_engine) ?(top_n = 10) ?timeout_s ?(retries = 1)
    ?(backoff_s = 0.05) ~objective space =
  if retries < 0 then invalid_arg "Tuner.tune: retries < 0";
  if backoff_s < 0.0 then invalid_arg "Tuner.tune: backoff_s < 0";
  let (module E : Engine_intf.S) = engine in
  let plan = Plan.make_exn space in
  let iter_order = plan.Plan.iter_order in
  let mutex = Mutex.create () in
  let top = ref [] in
  let evaluated = ref 0 in
  let failed = ref 0 in
  let fail_counter, retry_counter =
    match (Obs.current ()).Obs.metrics with
    | None -> (None, None)
    | Some r ->
      let mk name =
        Some (Metrics.counter r ~name ~labels:[ ("space", Space.name space) ] ())
      in
      (mk "benchmark_failures_total", mk "benchmark_retries_total")
  in
  let worst_of top =
    match top with
    | [] -> neg_infinity
    | _ -> (List.nth top (List.length top - 1)).score
  in
  let on_hit lookup =
    match
      guarded ~timeout_s ~retries ~backoff_s
        ~on_retry:(fun () -> Option.iter Metrics.incr retry_counter)
        objective lookup
    with
    | None ->
      Mutex.lock mutex;
      incr failed;
      Mutex.unlock mutex;
      Option.iter Metrics.incr fail_counter
    | Some score ->
      Mutex.lock mutex;
      incr evaluated;
      if List.length !top < top_n || score > worst_of !top then begin
        let bindings = List.map (fun n -> (n, lookup n)) iter_order in
        top := insert_top top_n { score; bindings } !top;
        Obs.instant ~cat:"tune" ~args:[ ("score", Obs.Float score) ] "candidate"
      end;
      Mutex.unlock mutex
  in
  (* Monotonic clock: wall-clock adjustments (NTP slew, DST) must not
     distort the reported tuning time. *)
  let t0 = Clock.now_ns () in
  let stats =
    Obs.with_span ~cat:"tune"
      ~args:[ ("space", Obs.Str (Space.name space)) ]
      "tune"
      (fun () -> E.run ~on_hit (Engine_intf.Space space))
  in
  let elapsed_s = Clock.elapsed_s ~since:t0 in
  let top = !top in
  {
    best =
      (match top with
      | [] -> None
      | c :: _ -> Some c);
    top;
    evaluated = !evaluated;
    failed = !failed;
    stats;
    elapsed_s;
  }

let improvement result ~baseline =
  match result.best with
  | None -> None
  | Some c ->
    if baseline <= 0.0 then None else Some (c.score /. baseline)

type bi_candidate = {
  bi_scores : float * float;
  bi_bindings : (string * Value.t) list;
}

let dominates (a1, a2) (b1, b2) =
  a1 >= b1 && a2 >= b2 && (a1 > b1 || a2 > b2)

let pareto ?(engine = default_engine) ?(max_front = 64) ~objectives space =
  let (module E : Engine_intf.S) = engine in
  let f1, f2 = objectives in
  let plan = Plan.make_exn space in
  let iter_order = plan.Plan.iter_order in
  let mutex = Mutex.create () in
  let front = ref [] in
  let on_hit lookup =
    let scores = (f1 lookup, f2 lookup) in
    Mutex.lock mutex;
    let dominated =
      List.exists
        (fun c -> dominates c.bi_scores scores || c.bi_scores = scores)
        !front
    in
    if not dominated then begin
      let bindings = List.map (fun n -> (n, lookup n)) iter_order in
      front :=
        { bi_scores = scores; bi_bindings = bindings }
        :: List.filter (fun c -> not (dominates scores c.bi_scores)) !front
    end;
    Mutex.unlock mutex
  in
  ignore
    (Obs.with_span ~cat:"tune"
       ~args:[ ("space", Obs.Str (Space.name space)) ]
       "pareto"
       (fun () -> E.run ~on_hit (Engine_intf.Space space)));
  let sorted =
    List.sort
      (fun a b -> compare (fst b.bi_scores) (fst a.bi_scores))
      !front
  in
  if List.length sorted <= max_front then sorted
  else begin
    (* Keep the extremes and an even subsample of the interior. *)
    let arr = Array.of_list sorted in
    let n = Array.length arr in
    List.init max_front (fun i -> arr.(i * (n - 1) / (max_front - 1)))
  end

let pp_result ?peak ppf r =
  Format.fprintf ppf
    "tuned %d survivors in %.2fs (%d loop iterations, %d pruned%s)@\n"
    r.evaluated r.elapsed_s r.stats.Engine.loop_iterations
    (Engine.total_pruned r.stats)
    (if r.failed > 0 then Printf.sprintf ", %d failed benchmarks" r.failed
     else "");
  List.iteri
    (fun i c ->
      Format.fprintf ppf "  #%-2d score %10.2f" (i + 1) c.score;
      (match peak with
      | Some p when p > 0.0 ->
        Format.fprintf ppf " (%5.1f%% of peak)" (100.0 *. c.score /. p)
      | _ -> ());
      List.iter
        (fun (n, v) -> Format.fprintf ppf " %s=%s" n (Value.to_string v))
        c.bindings;
      Format.fprintf ppf "@\n")
    r.top
