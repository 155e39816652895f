(* Both entry points run one step walker over the plan's steps. They
   differ in three things only: how a derive is evaluated, how a check
   is evaluated, and how a loop's values are produced and bound — the
   [derive], [check] and [loop] functions below, each a match on where
   the variables live. The Space path evaluates the original named
   bodies against a string-keyed hash table, so each variable access
   costs an associative lookup — the scripting-tier cost model of
   Section XI-B. The Plan path re-walks each lowered expression through
   [Plan.eval_cexpr] per visit. (A match, not a closure per path: an
   indirect call per step measurably slows the Plan path.) *)

open Beast_obs

type env =
  | Named of {
      table : (string, Value.t) Hashtbl.t;
      lookup : Expr.lookup;  (* [Hashtbl.find table], built once *)
      bodies : (string, Space.body) Hashtbl.t;
      iters : (string, Iter.t) Hashtbl.t;
      mirror : bool;
          (* keep the slot array in step with the table, for the
             provenance counters, which read slots *)
    }
  | Slots

let mirror slots slot (v : Value.t) =
  match v with
  | Int i -> slots.(slot) <- i
  | Bool b -> slots.(slot) <- (if b then 1 else 0)
  | Float _ | Str _ -> ()

let eval_body lookup bodies name =
  match Hashtbl.find bodies name with
  | Space.E e -> Expr.eval lookup e
  | Space.F { fn; _ } -> fn lookup

let eval_compute slots = function
  | Plan.CE e -> Plan.eval_cexpr slots e
  | Plan.CF (_, f) -> f slots

let derive env slots name slot compute =
  match env with
  | Named { table; lookup; bodies; mirror = m; _ } ->
    let v = eval_body lookup bodies name in
    Hashtbl.replace table name v;
    if m then mirror slots slot v
  | Slots -> slots.(slot) <- eval_compute slots compute

let check env slots name compute =
  match env with
  | Named { lookup; bodies; _ } -> Value.truthy (eval_body lookup bodies name)
  | Slots -> eval_compute slots compute <> 0

(* Materialize the loop's values — as Python's range() builds its value
   list (Section XI-B) — and return their count with a binder for the
   j-th one. *)
let loop env slots var slot (iter : Plan.citer) =
  match env with
  | Named { table; lookup; iters; mirror = m; _ } ->
    let vs =
      try Iter.materialize lookup (Hashtbl.find iters var)
      with Expr.Eval_error "range: zero step" -> Engine.zero_step var
    in
    ( Array.length vs,
      fun j ->
        Hashtbl.replace table var vs.(j);
        if m then mirror slots slot vs.(j) )
  | Slots ->
    let vs =
      match iter with
      | CRange (a, b, c) ->
        let start = Plan.eval_cexpr slots a
        and stop = Plan.eval_cexpr slots b
        and step = Plan.eval_cexpr slots c in
        if step = 0 then Engine.zero_step var;
        Array.init (Plan.trip_count ~start ~stop ~step) (fun i ->
            start + (i * step))
      | CValues vs -> vs
      | CDyn (_, f) -> f slots
    in
    (Array.length vs, fun j -> slots.(slot) <- vs.(j))

(* [slots] is the integer slot array: the Plan path's variables, the
   Space path's provenance mirror. *)
let walk env ~slots ?on_hit ?args name (plan : Plan.t) =
  let r = Engine.Run.start plan in
  let lookup =
    match env with
    | Named { lookup; _ } -> lookup
    | Slots -> Plan.lookup_of_slots plan slots
  in
  let instrumented = r.Engine.Run.instrumented in
  let pruned = r.Engine.Run.pruned in
  let depth_entries = r.Engine.Run.depth_entries in
  let level_time = r.Engine.Run.level_time in
  let charges =
    Array.init (Array.length plan.Plan.constraint_info) (Engine.Run.charge r)
  in
  let prov_fire, prov_hit =
    match r.Engine.Run.prov with
    | None -> ((fun _ -> ()), fun () -> ())
    | Some (_, pl) ->
      ((fun c -> Provenance.fire pl slots c), fun () -> Provenance.hit pl slots)
  in
  let survivors = ref 0 in
  (* Instrumented loops also count their entries live, for throughput
     sampling and the outer-loop progress fraction. *)
  let points = ref 0 in
  let observed ~depth n bind j =
    bind j;
    incr points;
    if depth = 0 then begin
      r.Engine.Run.outer_total <- n;
      r.Engine.Run.outer_done <- j + 1
    end;
    Engine.Run.tick r ~points:!points ~survivors:!survivors
  in
  let rec exec_steps ~depth (steps : Plan.step list) =
    match steps with
    | [] -> ()
    | Yield :: rest ->
      incr survivors;
      prov_hit ();
      (match on_hit with
      | None -> ()
      | Some f -> f lookup);
      exec_steps ~depth rest
    | Derive { d_name; d_slot; d_compute } :: rest ->
      derive env slots d_name d_slot d_compute;
      exec_steps ~depth rest
    | Check { c_name; c_index; c_compute; _ } :: rest ->
      let fired =
        if instrumented then begin
          let t0 = Clock.now_ns () in
          let v = check env slots c_name c_compute in
          charges.(c_index) (Clock.now_ns () - t0);
          v
        end
        else check env slots c_name c_compute
      in
      if fired then begin
        pruned.(c_index) <- pruned.(c_index) + 1;
        prov_fire c_index
      end
      else exec_steps ~depth rest
    | Static_prune { sp_slot; sp_dead; _ } :: rest ->
      let n = Array.length sp_dead in
      depth_entries.(depth) <- depth_entries.(depth) + n;
      points := !points + n;
      (match r.Engine.Run.prov with
      | None -> Array.iter (fun (_, c) -> pruned.(c) <- pruned.(c) + 1) sp_dead
      | Some (_, pl) ->
        Array.iter
          (fun (v, c) ->
            pruned.(c) <- pruned.(c) + 1;
            Provenance.static_fire pl slots ~slot:sp_slot ~value:v c)
          sp_dead);
      exec_steps ~depth rest
    | Loop { l_var; l_slot; l_iter; l_body } :: rest ->
      let n, bind = loop env slots l_var l_slot l_iter in
      depth_entries.(depth) <- depth_entries.(depth) + n;
      let t0 = if instrumented then Clock.now_ns () else 0 in
      let bind = if instrumented then observed ~depth n bind else bind in
      for j = 0 to n - 1 do
        bind j;
        exec_steps ~depth:(depth + 1) l_body
      done;
      if instrumented then
        level_time.(depth) <- level_time.(depth) + (Clock.now_ns () - t0);
      exec_steps ~depth rest
  in
  Engine.Run.sweep r ?args name (fun () -> exec_steps ~depth:0 plan.Plan.steps);
  Engine.Run.finish r ~survivors:!survivors
    ~loop_iterations:(Array.fold_left ( + ) 0 depth_entries)

let run ?on_hit ?(variant = `Hoisted) space =
  let hoist =
    match variant with
    | `Hoisted -> true
    | `Naive -> false
  in
  let plan = Plan.make_exn ~hoist space in
  let table = Hashtbl.create 64 in
  List.iter (fun (n, v) -> Hashtbl.replace table n v) (Space.settings space);
  let bodies = Hashtbl.create 64 in
  List.iter
    (fun dv -> Hashtbl.replace bodies dv.Space.dv_name dv.Space.dv_body)
    (Space.deriveds space);
  List.iter
    (fun cn -> Hashtbl.replace bodies cn.Space.cn_name cn.Space.cn_body)
    (Space.constraints space);
  let iters = Hashtbl.create 16 in
  List.iter
    (fun it -> Hashtbl.replace iters it.Space.it_name it.Space.it_iter)
    (Space.iterators space);
  (* With [`Naive] every constraint sits at the innermost depth and each
     firing removes exactly one point (empty subtree product), so
     provenance attribution is trivially exact. *)
  let lookup name = Hashtbl.find table name in
  walk
    (Named { table; lookup; bodies; iters; mirror = Provenance.enabled () })
    ~slots:(Array.make (max 1 plan.Plan.n_slots) 0)
    ?on_hit
    ~args:
      [
        ( "variant",
          Obs.Str
            (match variant with
            | `Hoisted -> "hoisted"
            | `Naive -> "naive") );
      ]
    "sweep:interp" plan

(* The Plan-target path of the engine API. No staging, keeping the
   interpreter's cost model while accepting plans the Space path cannot
   reconstruct (chunked, sliced or propagated ones). *)
let run_plan ?on_hit (plan : Plan.t) =
  walk Slots
    ~slots:(Array.make (max 1 plan.Plan.n_slots) 0)
    ?on_hit "sweep:interp-plan" plan
