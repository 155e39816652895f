(* Staging: the plan is compiled once per run into a chain of
   [int array -> unit] closures over one slot array; after compilation
   the sweep never looks at the plan again.

   This module compiles steps only. Every expression goes through the
   specialising compiler shared with the provenance counting programs:
   [Plan.compile_cexpr] for derived values and range bounds,
   [Plan.compile_cond] for constraints. Slot-free subtrees fold, leaf
   operands fuse into their parent's closure, and a constraint is a
   [bool] closure, so a check never builds a 0/1 int.

   Statistics are counted where they cost least. Each [Check] owns a
   fired counter. Each [Loop] adds its trip count ([Plan.trip_count],
   exact even when [stop - start] overflows, or the value array's
   length) to its own counter once per entry, not once per iteration,
   and then binds its slot to exactly that many values. Each
   [Static_prune] counts its executions. The counters fold into the
   run record ([Engine.Run]: [pruned] and the per-depth loop entries)
   once, at run end; [Engine.Run.finish] does the rest of the per-run
   accounting.

   One compiler serves three modes, chosen once per run, at compile
   time, so the closures of one mode carry nothing of the others:
   - plain: nothing installed — the disabled path is the uninstrumented
     code. Here alone a loop whose first check [Plan.solved_check]
     recognises solves it once per entry ([Plan.solve]) and binds only
     the value that passes, charging the others to the check in bulk,
     and the outer loop of a [Plan.solved_pair] runs only the values
     of its [Plan.pair_window] that divide the target; the other modes
     test every value, so per-value provenance and per-evaluation
     timing see every evaluation;
   - provenance: a collector is installed; firings, hits and static
     prunes also feed a run-private [Provenance.local], with no clock
     reads;
   - instrumented ([Engine.Run]'s [instrumented]: tracing, progress or
     a Metrics registry). Iterations are also counted live to sample
     throughput, each loop level and each constraint evaluation is
     timed, and with metrics each evaluation lands in a per-constraint
     latency histogram whose recorder is resolved here, once per run. *)

open Beast_obs

(* Bind [slot] to [n] values from [start] by [step]. [n] is exact, so
   the final [v + step] may overflow but is never read. *)
let iterate s slot ~start ~step n body =
  let v = ref start in
  for _ = 1 to n do
    s.(slot) <- !v;
    body s;
    v := !v + step
  done

let iterate_values s slot vs body =
  for j = 0 to Array.length vs - 1 do
    s.(slot) <- vs.(j);
    body s
  done

(* One loop entry: add the trip count to [entries], then run the body
   once per value. A range with slot-free bounds has its trip count
   computed here, at compile time. *)
let compile_loop ~entries l_var l_slot (l_iter : Plan.citer) body =
  match l_iter with
  | CRange (a, b, c) -> (
    match (Plan.static_cexpr a, Plan.static_cexpr b, Plan.static_cexpr c) with
    | Some start, Some stop, Some step when step <> 0 ->
      let n = Plan.trip_count ~start ~stop ~step in
      fun s ->
        entries := !entries + n;
        iterate s l_slot ~start ~step n body
    | _ ->
      let fa = Plan.compile_cexpr a
      and fb = Plan.compile_cexpr b
      and fc = Plan.compile_cexpr c in
      fun s ->
        let start = fa s and stop = fb s and step = fc s in
        if step = 0 then Engine.zero_step l_var;
        let n = Plan.trip_count ~start ~stop ~step in
        entries := !entries + n;
        iterate s l_slot ~start ~step n body)
  | CValues vs ->
    let n = Array.length vs in
    fun s ->
      entries := !entries + n;
      iterate_values s l_slot vs body
  | CDyn (_, materialize) ->
    fun s ->
      let vs = materialize s in
      entries := !entries + Array.length vs;
      iterate_values s l_slot vs body

(* A loop whose first check [Plan.solve]s once per entry (plain mode
   only). The loop still adds its whole trip to [entries]; the check
   charges the values the solve skips to [fired] in bulk, and a kept
   value still runs the check in [body], where it passes. *)
let compile_solved ~entries ~fired l_var l_slot (a, b, c) (sv : Plan.solved)
    body =
  let fa = Plan.compile_cexpr a
  and fb = Plan.compile_cexpr b
  and fc = Plan.compile_cexpr c
  and fm = Plan.compile_cexpr sv.sv_coef
  and ft = Plan.compile_cexpr sv.sv_target in
  let only = ref 0 in
  fun s ->
    let start = fa s and stop = fb s and step = fc s in
    if step = 0 then Engine.zero_step l_var;
    let n = Plan.trip_count ~start ~stop ~step in
    entries := !entries + n;
    match Plan.solve ~start ~step ~trip:n ~coef:(fm s) ~target:(ft s) ~only with
    | Pass_none -> fired := !fired + n
    | Pass_one ->
      fired := !fired + n - 1;
      s.(l_slot) <- !only;
      body s
    | Pass_all | Test_each -> iterate s l_slot ~start ~step n body

(* The outer loop [x] of a [Plan.solved_pair] (plain mode only), with
   [inner] the compiled solved loop [y]. [y]'s bounds are evaluated once
   per entry, and only when [x] has values, as the first [inner] call
   would; [x] stays out of them, so [inner] sees the same. A value of
   [x] the window skips, or that does not divide [t], charges [y]'s trip
   to [inner_entries] and [fired] in bulk. *)
let compile_window ~entries ~inner_entries ~fired l_var l_slot (a, b, c)
    (pr : Plan.pair) inner =
  let fa = Plan.compile_cexpr a
  and fb = Plan.compile_cexpr b
  and fc = Plan.compile_cexpr c
  and ga, gb, gc = pr.pr_range in
  let ga = Plan.compile_cexpr ga
  and gb = Plan.compile_cexpr gb
  and gc = Plan.compile_cexpr gc
  and ft = Plan.compile_cexpr pr.pr_solved.sv_target in
  let lo = ref 0 and hi = ref 0 in
  fun s ->
    let start = fa s and stop = fb s and step = fc s in
    if step = 0 then Engine.zero_step l_var;
    let n = Plan.trip_count ~start ~stop ~step in
    entries := !entries + n;
    if n > 0 then begin
      let inner_start = ga s and inner_stop = gb s and inner_step = gc s in
      if inner_step = 0 then Engine.zero_step pr.pr_var;
      let ny =
        Plan.trip_count ~start:inner_start ~stop:inner_stop ~step:inner_step
      in
      let t = ft s in
      if
        Plan.pair_window ~start ~step ~trip:n ~inner_start ~inner_step
          ~inner_trip:ny ~target:t ~lo ~hi
      then begin
        let misses = ref (n - (!hi - !lo)) in
        for k = !lo to !hi - 1 do
          let x = start + (k * step) in
          if t mod x <> 0 then incr misses
          else begin
            s.(l_slot) <- x;
            inner s
          end
        done;
        inner_entries := !inner_entries + (!misses * ny);
        fired := !fired + (!misses * ny)
      end
      else iterate s l_slot ~start ~step n inner
    end

let run ?on_hit (plan : Plan.t) =
  let r = Engine.Run.start plan in
  let instrumented = r.Engine.Run.instrumented in
  let plocal = Option.map snd r.Engine.Run.prov in
  let slots = Array.make (max 1 plan.Plan.n_slots) 0 in
  let survivors = ref 0 in
  (* The compiled closures own their counters; these fold them into the
     run record's [pruned] and [depth_entries] after the sweep. *)
  let folds = ref [] in
  let at_end f = folds := f :: !folds in
  let pruned = r.Engine.Run.pruned in
  let depth_entries = r.Engine.Run.depth_entries in
  let add_entries depth n = depth_entries.(depth) <- depth_entries.(depth) + n in
  (* Instrumented mode only: live point count for throughput sampling,
     outer-loop progress, and per-level / per-constraint time. *)
  let level_time = r.Engine.Run.level_time in
  let points = ref 0 in
  let tick () = Engine.Run.tick r ~points:!points ~survivors:!survivors in
  let hit =
    let count =
      match on_hit with
      | None -> fun _ -> incr survivors
      | Some f ->
        let lookup = Plan.lookup_of_slots plan slots in
        fun _ ->
          incr survivors;
          f lookup
    in
    match plocal with
    | None -> count
    | Some pl ->
      fun s ->
        count s;
        Provenance.hit pl s
  in
  let compile_check c_index (compute : Plan.compute) k =
    let cond =
      match compute with
      | CE e -> Plan.compile_cond e
      | CF (_, f) -> fun s -> f s <> 0
    in
    let fired = ref 0 in
    at_end (fun () -> pruned.(c_index) <- pruned.(c_index) + !fired);
    match (instrumented, plocal) with
    | false, None -> fun s -> if cond s then incr fired else k s
    | false, Some pl ->
      fun s ->
        if cond s then begin
          incr fired;
          Provenance.fire pl s c_index
        end
        else k s
    | true, _ ->
      let charge = Engine.Run.charge r c_index in
      let prov_fire =
        match plocal with
        | None -> fun _ -> ()
        | Some pl -> fun s -> Provenance.fire pl s c_index
      in
      fun s ->
        let t0 = Clock.now_ns () in
        let v = cond s in
        charge (Clock.now_ns () - t0);
        if v then begin
          incr fired;
          prov_fire s
        end
        else k s
  in
  (* Statistics compensation for statically-removed loop entries: the
     following loop never visits the dead values, but the stats must
     read as if it had entered each one and the attributed constraint
     had fired — and, with provenance, as if each dead value had been
     bound to the loop's slot when it fired. *)
  let compile_static_prune ~depth sp_slot sp_dead k =
    let n = Array.length sp_dead in
    let counts = Plan.static_prune_counts sp_dead in
    let execs = ref 0 in
    at_end (fun () ->
        add_entries depth (!execs * n);
        Array.iter (fun (c, m) -> pruned.(c) <- pruned.(c) + (!execs * m)) counts);
    match (instrumented, plocal) with
    | false, None ->
      fun s ->
        incr execs;
        k s
    | _ ->
      fun s ->
        incr execs;
        if instrumented then points := !points + n;
        Option.iter
          (fun pl ->
            Array.iter
              (fun (v, c) -> Provenance.static_fire pl s ~slot:sp_slot ~value:v c)
              sp_dead)
          plocal;
        k s
  in
  let plain = (not instrumented) && plocal = None in
  let solved_fired (sv : Plan.solved) =
    let fired = ref 0 in
    at_end (fun () -> pruned.(sv.sv_index) <- pruned.(sv.sv_index) + !fired);
    fired
  in
  let compile_entry ~depth ~entries l_var l_slot l_iter l_body body =
    if not instrumented then
      match (l_iter, plain, Plan.solved_check ~slot:l_slot l_iter l_body) with
      | CRange (a, b, c), true, Some sv ->
        compile_solved ~entries ~fired:(solved_fired sv) l_var l_slot (a, b, c)
          sv body
      | _ -> compile_loop ~entries l_var l_slot l_iter body
    else
      let body s =
        incr points;
        if depth = 0 then begin
          r.Engine.Run.outer_total <- !entries;
          r.Engine.Run.outer_done <- r.Engine.Run.outer_done + 1
        end;
        tick ();
        body s
      in
      let loop = compile_loop ~entries l_var l_slot l_iter body in
      fun s ->
        let t0 = Clock.now_ns () in
        loop s;
        level_time.(depth) <- level_time.(depth) + (Clock.now_ns () - t0)
  in
  let rec compile ~depth (steps : Plan.step list) : int array -> unit =
    match steps with
    | [] -> fun _ -> ()
    | Yield :: rest -> and_then ~depth hit rest
    | Derive { d_slot; d_compute; _ } :: rest ->
      let f =
        match d_compute with CE e -> Plan.compile_cexpr e | CF (_, f) -> f
      in
      let k = compile ~depth rest in
      fun s ->
        s.(d_slot) <- f s;
        k s
    | Check { c_index; c_compute; _ } :: rest ->
      compile_check c_index c_compute (compile ~depth rest)
    | Static_prune { sp_slot; sp_dead; _ } :: rest ->
      compile_static_prune ~depth sp_slot sp_dead (compile ~depth rest)
    | Loop { l_var; l_slot; l_iter; l_body } :: rest ->
      let entries = ref 0 in
      at_end (fun () -> add_entries depth !entries);
      let loop =
        match (l_iter, plain, Plan.solved_pair ~slot:l_slot l_iter l_body) with
        | CRange (a, b, c), true, Some pr ->
          let inner_entries = ref 0 and fired = solved_fired pr.pr_solved in
          at_end (fun () -> add_entries (depth + 1) !inner_entries);
          let inner =
            compile_solved ~entries:inner_entries ~fired pr.pr_var pr.pr_slot
              pr.pr_range pr.pr_solved
              (compile ~depth:(depth + 2) pr.pr_body)
          in
          compile_window ~entries ~inner_entries ~fired l_var l_slot (a, b, c)
            pr inner
        | _ ->
          compile_entry ~depth ~entries l_var l_slot l_iter l_body
            (compile ~depth:(depth + 1) l_body)
      in
      and_then ~depth loop rest
  (* A loop or yield ends its step list in every plan [Plan.make] builds,
     so the common case has no continuation to call. *)
  and and_then ~depth f rest =
    match rest with
    | [] -> f
    | _ :: _ ->
      let k = compile ~depth rest in
      fun s ->
        f s;
        k s
  in
  let sweep = compile ~depth:0 plan.Plan.steps in
  Engine.Run.sweep r "sweep:staged" (fun () -> sweep slots);
  List.iter (fun fold -> fold ()) !folds;
  Engine.Run.finish r ~survivors:!survivors
    ~loop_iterations:(Array.fold_left ( + ) 0 depth_entries)

let run_space ?on_hit space = run ?on_hit (Plan.make_exn space)
