open Beast_obs

type stats = {
  survivors : int;
  loop_iterations : int;
  pruned : (string * Space.constraint_class * int) array;
}

type on_hit = Expr.lookup -> unit

let empty_stats (plan : Plan.t) =
  {
    survivors = 0;
    loop_iterations = 0;
    pruned = Array.map (fun (n, c) -> (n, c, 0)) plan.Plan.constraint_info;
  }

let total_pruned s = Array.fold_left (fun acc (_, _, k) -> acc + k) 0 s.pruned

let combine ~fired a b =
  if Array.length a.pruned <> Array.length b.pruned then
    invalid_arg "Engine.merge: stats from different plans";
  {
    survivors = a.survivors + b.survivors;
    loop_iterations = a.loop_iterations + b.loop_iterations;
    pruned =
      Array.mapi
        (fun i (n, c, k) ->
          let _, _, k' = b.pruned.(i) in
          (n, c, fired i k k'))
        a.pruned;
  }

let merge = combine ~fired:(fun _ k k' -> k + k')

(* Depth-0 checks run once per block with the same count in every
   non-empty block, so they keep the maximum: order-independent, and
   also right for a loop-free plan, where only block 0 carries them. *)
let merge_blocks ~depth0 = function
  | [] -> invalid_arg "Engine.merge_blocks: no blocks"
  | first :: rest ->
    List.fold_left
      (combine ~fired:(fun i k k' -> if depth0.(i) then max k k' else k + k'))
      first rest

let zero_step var =
  raise (Expr.Eval_error (Printf.sprintf "%s: zero range step" var))

(* ------------------------------------------------------------------ *)
(* Per-run accounting                                                  *)
(* ------------------------------------------------------------------ *)

(* Unconditional: one hook check per run, and the cheap way a coarse
   run-record heartbeat learns per-chunk point totals. *)
let report_totals metrics ~survivors ~loop_iterations =
  Obs.progress_tick ~points:loop_iterations ~survivors ~frac:1.0;
  Option.iter
    (fun registry ->
      Metrics.add
        (Metrics.counter registry ~name:"points_total" ~labels:[] ())
        loop_iterations;
      Metrics.add
        (Metrics.counter registry ~name:"survivors_total" ~labels:[] ())
        survivors)
    metrics

module Run = struct
  type t = {
    plan : Plan.t;
    instrumented : bool;
    prov : (Pruned.collector * Provenance.local) option;
    metrics : Metrics.t option;
    eval_hists : Metrics.histogram array option;
    pruned : int array;
    depth_entries : int array;
    check_time : int array;
    level_time : int array;
    mutable outer_done : int;
    mutable outer_total : int;
    mutable last_ns : int;
    mutable last_points : int;
    mutable t0 : int;
  }

  let sample_mask = 0x7FFF
  let instrumenting () = (Obs.current ()).Obs.instrumented

  let start (plan : Plan.t) =
    let ctx = Obs.current () in
    let metrics = ctx.Obs.metrics in
    let n_constraints = Array.length plan.Plan.constraint_info in
    let n_loops = max 1 (List.length plan.Plan.iter_order) in
    let now = Clock.now_ns () in
    {
      plan;
      instrumented = ctx.Obs.instrumented;
      (* Provenance accumulates into a run-private local (no
         synchronization in the hot path) added to the context's
         collector by [finish], so parallel chunk runs compose by
         summation. *)
      prov =
        Option.map
          (fun c -> (c, Provenance.local_of (Provenance.attribution plan)))
          ctx.Obs.provenance;
      metrics;
      eval_hists =
        Option.map
          (fun r ->
            Array.map
              (fun (name, _) ->
                Metrics.histogram r ~unit_:"ns" ~name:"constraint_eval_ns"
                  ~labels:[ ("constraint", name) ]
                  ())
              plan.Plan.constraint_info)
          metrics;
      pruned = Array.make n_constraints 0;
      depth_entries = Array.make n_loops 0;
      check_time = Array.make (max 1 n_constraints) 0;
      level_time = Array.make n_loops 0;
      outer_done = 0;
      outer_total = 0;
      last_ns = now;
      last_points = 0;
      t0 = now;
    }

  let charge r c =
    let check_time = r.check_time in
    match r.eval_hists with
    | None -> fun dt -> check_time.(c) <- check_time.(c) + dt
    | Some hists ->
      let h = hists.(c) in
      fun dt ->
        check_time.(c) <- check_time.(c) + dt;
        Metrics.record h dt

  let tick r ~points ~survivors =
    if points land sample_mask = 0 then begin
      let now = Clock.now_ns () in
      let dt = now - r.last_ns in
      if dt > 0 && Obs.enabled () then
        Obs.counter ~cat:"engine" "points_per_sec"
          (float_of_int (points - r.last_points) /. Clock.ns_to_s dt);
      r.last_ns <- now;
      r.last_points <- points;
      Obs.progress_tick ~points ~survivors
        ~frac:
          (if r.outer_total > 0 then
             float_of_int r.outer_done /. float_of_int r.outer_total
           else -1.0)
    end

  let sweep r ?(args = []) name f =
    r.t0 <- Clock.now_ns ();
    Obs.with_span ~cat:"engine"
      ~args:(("space", Obs.Str r.plan.Plan.space_name) :: args)
      name f

  (* Post-run aggregates: one Complete span per constraint (cumulative
     evaluation time, firing count) and per loop level (cumulative time
     inside the level, entry count), all anchored at the sweep's start
     so they stack as tracks in a Chrome trace. *)
  let emit_aggregates r =
    Array.iteri
      (fun i (name, cls) ->
        Obs.complete ~cat:"constraint" ~ts:r.t0 ~dur_ns:r.check_time.(i)
          ~args:
            [
              ("fired", Obs.Int r.pruned.(i));
              ("class", Obs.Str (Space.constraint_class_name cls));
            ]
          name)
      r.plan.Plan.constraint_info;
    List.iteri
      (fun d var ->
        Obs.complete ~cat:"level" ~ts:r.t0 ~dur_ns:r.level_time.(d)
          ~args:
            [ ("depth", Obs.Int d); ("entries", Obs.Int r.depth_entries.(d)) ]
          var)
      r.plan.Plan.iter_order

  let finish r ~survivors ~loop_iterations =
    if r.instrumented && Obs.enabled () then emit_aggregates r;
    Option.iter
      (fun (collector, local) ->
        Pruned.add collector
          (Provenance.summary_of_local ~depth_entries:r.depth_entries local))
      r.prov;
    (* Counters add across chunks and shards, so per-run adds compose. *)
    Option.iter
      (fun registry ->
        List.iteri
          (fun d var ->
            Metrics.add
              (Metrics.counter registry ~name:"loop_entries_total"
                 ~labels:[ ("depth", string_of_int d); ("var", var) ]
                 ())
              r.depth_entries.(d))
          r.plan.Plan.iter_order)
      r.metrics;
    report_totals r.metrics ~survivors ~loop_iterations;
    {
      survivors;
      loop_iterations;
      pruned =
        Array.mapi
          (fun i (n, c) -> (n, c, r.pruned.(i)))
          r.plan.Plan.constraint_info;
    }
end

let pp_stats ppf s =
  Format.fprintf ppf "survivors: %d@\nloop iterations: %d@\n" s.survivors
    s.loop_iterations;
  Array.iter
    (fun (n, c, k) ->
      Format.fprintf ppf "  %-28s [%s] fired %d@\n" n
        (Space.constraint_class_name c)
        k)
    s.pruned
