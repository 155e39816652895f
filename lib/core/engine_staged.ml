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

   One visiting order serves three modes, chosen once per run at
   compile time, so the closures of one mode carry nothing of the
   others (DESIGN §11). A loop whose first check [Plan.solved_check]
   recognises solves it once per entry and binds only the value that
   passes; the outer loop of a [Plan.solved_pair] binds only the
   divisors in its [Plan.pair_window]. The modes differ only in what
   they record of the values they bind or skip: nothing (plain);
   firings, hits, static prunes and skipped values in a run-private
   [Provenance.local] (provenance), where a loop whose removal count
   reads a slot a skip leaves unbound tests every value instead; live
   point counts and the time of each level and constraint evaluation,
   a solve once per entry (instrumented: tracing, progress or a
   Metrics registry, whose latency recorders resolve here, once). *)

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

(* A loop whose first check [Plan.solve]s once per entry. The loop
   still adds its whole trip to [entries]; the check charges the values
   the solve skips to [fired] in bulk, and a kept value still runs the
   check in [body], where it passes. [time] takes each solve's ns, and
   [skip s k] records [k] skipped values: with [each], one at a time
   and bound, else at once. *)
let compile_solved ~entries ~fired ?time ?skip ?(each = false) l_var l_slot
    (a, b, c) (sv : Plan.solved) body =
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
    let t0 = match time with None -> 0 | Some _ -> Clock.now_ns () in
    let sol =
      Plan.solve ~start ~step ~trip:n ~coef:(fm s) ~target:(ft s) ~only
    in
    (match time with None -> () | Some time -> time (Clock.now_ns () - t0));
    (match (skip, sol) with
    | None, _ | Some _, (Pass_all | Test_each) -> ()
    | Some skip, _ when not each -> skip s (if sol = Pass_none then n else n - 1)
    | Some skip, _ ->
      for i = 0 to n - 1 do
        let x = start + (i * step) in
        if sol = Pass_none || x <> !only then begin
          s.(l_slot) <- x;
          skip s 1
        end
      done);
    match sol with
    | Pass_none -> fired := !fired + n
    | Pass_one ->
      fired := !fired + n - 1;
      s.(l_slot) <- !only;
      body s
    | Pass_all | Test_each -> iterate s l_slot ~start ~step n body

(* The outer loop [x] of a [Plan.solved_pair], with [inner] the
   compiled solved loop [y]. [y]'s bounds are evaluated once per entry,
   and only when [x] has values, as the first [inner] call would; [x]
   stays out of them, so [inner] sees the same. A value of [x] the
   window skips, or that does not divide [t], charges [y]'s trip to
   [inner_entries] and [fired] in bulk, and [miss s k ny] records [k]
   such values: with [each], one at a time and bound, else at once. *)
let compile_window ~entries ~inner_entries ~fired ?(each = false) ?miss l_var
    l_slot (a, b, c) (pr : Plan.pair) inner =
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
        let kept = ref 0 in
        for k = (if each then 0 else !lo) to (if each then n else !hi) - 1 do
          let x = start + (k * step) in
          s.(l_slot) <- x;
          if k >= !lo && k < !hi && t mod x = 0 then begin
            incr kept;
            inner s
          end
          else match miss with Some miss when each -> miss s 1 ny | _ -> ()
        done;
        let skipped = n - !kept in
        (match miss with Some miss when not each -> miss s skipped ny | _ -> ());
        inner_entries := !inner_entries + (skipped * ny);
        fired := !fired + (skipped * ny)
      end
      else iterate s l_slot ~start ~step n inner
    end

let run ?on_hit (plan : Plan.t) =
  let r = Engine.Run.start plan in
  let instrumented = r.Engine.Run.instrumented in
  let plocal = Option.map snd r.Engine.Run.prov in
  let recording = instrumented || plocal <> None in
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
     outer-loop progress, and per-level / per-constraint time. [visited]
     counts [k] values of the loop at [depth], bound or skipped. *)
  let level_time = r.Engine.Run.level_time in
  let points = ref 0 in
  let visited ~depth ~entries k =
    points := !points + k;
    if depth = 0 then begin
      r.Engine.Run.outer_total <- !entries;
      r.Engine.Run.outer_done <- r.Engine.Run.outer_done + k
    end;
    Engine.Run.tick r ~points:!points ~survivors:!survivors
  in
  let timed record f s =
    let t0 = Clock.now_ns () in
    let v = f s in
    record (Clock.now_ns () - t0);
    v
  in
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
    let cond =
      if instrumented then timed (Engine.Run.charge r c_index) cond else cond
    in
    let fired = ref 0 in
    at_end (fun () -> pruned.(c_index) <- pruned.(c_index) + !fired);
    match plocal with
    | None -> fun s -> if cond s then incr fired else k s
    | Some pl ->
      fun s ->
        if cond s then begin
          incr fired;
          Provenance.fire pl s c_index
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
    if not recording then fun s ->
      incr execs;
      k s
    else fun s ->
      incr execs;
      if instrumented then points := !points + n;
      (match plocal with
      | None -> ()
      | Some pl ->
        Array.iter
          (fun (v, c) -> Provenance.static_fire pl s ~slot:sp_slot ~value:v c)
          sp_dead);
      k s
  in
  (* Instrumented mode wraps each loop, however it is compiled: [entry]
     times the level, [visit] counts each value bound. *)
  let entry ~depth loop =
    if not instrumented then loop
    else
      timed (fun dt -> level_time.(depth) <- level_time.(depth) + dt) loop
  in
  let visit ~depth ~entries body =
    if not instrumented then body
    else fun s ->
      visited ~depth ~entries 1;
      body s
  in
  (* Provenance charges a skip in bulk only where the removal count reads
     no slot the skipped values leave unbound. *)
  let solvable (sv : Plan.solved) =
    match plocal with
    | None -> true
    | Some pl -> Provenance.reads_none pl sv.sv_index sv.sv_binds
  in
  (* Provenance takes skipped values of [slot] one at a time, bound,
     where they key density cells (depth 0) or [c]'s removal count may
     read them. *)
  let one_by_one ~depth c slot =
    match plocal with
    | None -> false
    | Some pl -> depth = 0 || not (Provenance.reads_none pl c [ slot ])
  in
  (* A solved loop at [depth], its fired counter and its [skip] hook. *)
  let solved ~depth ~entries var slot range (sv : Plan.solved) body =
    let c = sv.sv_index and fired = ref 0 in
    at_end (fun () -> pruned.(c) <- pruned.(c) + !fired);
    let skip s k =
      if instrumented then visited ~depth ~entries k;
      match plocal with
      | None -> ()
      | Some pl -> Provenance.fire_many pl s c ~count:k
    in
    ( compile_solved ~entries ~fired
        ?time:(if instrumented then Some (Engine.Run.charge r c) else None)
        ?skip:(if recording then Some skip else None)
        ~each:(one_by_one ~depth c slot)
        var slot range sv
        (visit ~depth ~entries body),
      fired,
      skip )
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
        match
          ( l_iter,
            Plan.solved_pair ~slot:l_slot l_iter l_body,
            Plan.solved_check ~slot:l_slot l_iter l_body )
        with
        | CRange (a, b, c), Some pr, _ when solvable pr.pr_solved ->
          let d = depth + 1 and inner_entries = ref 0 in
          at_end (fun () -> add_entries d !inner_entries);
          let inner, fired, skip =
            solved ~depth:d ~entries:inner_entries pr.pr_var pr.pr_slot
              pr.pr_range pr.pr_solved
              (compile ~depth:(d + 1) pr.pr_body)
          in
          (* [k] values of [x] missed, each skipping [ny] of [y]. *)
          let miss s k ny =
            if instrumented then visited ~depth ~entries k;
            skip s (k * ny)
          in
          compile_window ~entries ~inner_entries ~fired
            ~each:(one_by_one ~depth pr.pr_solved.sv_index l_slot)
            ?miss:(if recording then Some miss else None)
            l_var l_slot (a, b, c) pr
            (visit ~depth ~entries (entry ~depth:d inner))
        | CRange (a, b, c), _, Some sv when solvable sv ->
          let loop, _, _ =
            solved ~depth ~entries l_var l_slot (a, b, c) sv
              (compile ~depth:(depth + 1) l_body)
          in
          loop
        | _ ->
          compile_loop ~entries l_var l_slot l_iter
            (visit ~depth ~entries (compile ~depth:(depth + 1) l_body))
      in
      and_then ~depth (entry ~depth loop) rest
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
