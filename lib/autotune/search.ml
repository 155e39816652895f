open Beast_core
open Beast_obs

let eval_count = ref 0
let evaluations () = !eval_count
let reset_counters () = eval_count := 0

(* The slot vector of one feasible point (iterator values in layer
   order). The iterators take the point's values; the single path they
   select is walked to compute each derive and re-run each check as a
   cross-check of the diagram — a firing one means the diagram and the
   plan disagree. *)
let bind (plan : Plan.t) point =
  let slots = Array.make (max 1 plan.Plan.n_slots) 0 in
  Array.iteri (fun i s -> slots.(s) <- point.(i)) plan.Plan.iter_slots;
  let compute = function
    | Plan.CE e -> Plan.eval_cexpr slots e
    | Plan.CF f -> f slots
  in
  let rec go (steps : Plan.step list) =
    match steps with
    | [] | Plan.Yield :: _ -> ()
    | Plan.Derive { d_slot; d_compute; _ } :: rest ->
      slots.(d_slot) <- compute d_compute;
      go rest
    | Plan.Check { c_name; c_compute; _ } :: rest ->
      if compute c_compute <> 0 then
        Printf.ksprintf failwith "Search: %s rejects a feasible point" c_name;
      go rest
    | Plan.Static_prune _ :: rest -> go rest
    | Plan.Loop { l_body; _ } :: _ -> go l_body
  in
  go plan.Plan.steps;
  slots

let point_of feasible_point = Array.of_list (List.map snd feasible_point)

let evaluate plan ~objective point =
  let lookup = Plan.lookup_of_slots plan (bind plan point) in
  incr eval_count;
  let score = objective lookup in
  Obs.instant ~cat:"tune" ~args:[ ("score", Obs.Float score) ] "search:eval";
  {
    Tuner.score;
    bindings = List.map (fun n -> (n, lookup n)) plan.Plan.iter_order;
  }

let better a b =
  match a, b with
  | None, x | x, None -> x
  | Some x, Some y -> if x.Tuner.score >= y.Tuner.score then Some x else Some y

let setup ?rng (plan : Plan.t) feas =
  if Feasible.iterators feas <> plan.Plan.iter_order then
    invalid_arg "Search: the feasible set's layers are not the plan's loops";
  match rng with
  | Some r -> r
  | None -> Random.State.make_self_init ()

let random_search ?rng ~budget ~objective plan feas =
  let rng = setup ?rng plan feas in
  let rec go best remaining =
    if remaining <= 0 then best
    else
      match Feasible.sample ~rng feas with
      | None -> None
      | Some p ->
        let cand = evaluate plan ~objective (point_of p) in
        go (better best (Some cand)) (remaining - 1)
  in
  Obs.with_span ~cat:"tune"
    ~args:[ ("budget", Obs.Int budget) ]
    "search:random"
    (fun () -> go None budget)

let hill_climb ?rng ?(restarts = 5) ?(steps = 200) ~objective plan feas =
  let rng = setup ?rng plan feas in
  let layers = List.length plan.Plan.iter_order in
  (* Nudge one layer; magnitude scales with its value so big ranges move
     in useful increments. The nearest survivor is always a legal move. *)
  let move point =
    let dim = Random.State.int rng layers in
    let delta = if Random.State.bool rng then 1 else -1 in
    let targets = Array.copy point in
    targets.(dim) <- targets.(dim) + (delta * max 1 (abs targets.(dim) / 8));
    point_of (Feasible.nearest feas targets)
  in
  let rec climb point current k =
    if k = 0 || layers = 0 then current
    else
      let moved = move point in
      if moved = point then climb point current (k - 1)
      else
        let cand = evaluate plan ~objective moved in
        if cand.Tuner.score > current.Tuner.score then climb moved cand (k - 1)
        else climb point current (k - 1)
  in
  let climb_once () =
    Feasible.sample ~rng feas
    |> Option.map (fun p ->
           let point = point_of p in
           climb point (evaluate plan ~objective point) steps)
  in
  List.fold_left
    (fun best i ->
      better best
        (Obs.with_span ~cat:"tune" ~args:[ ("restart", Obs.Int i) ]
           "search:climb" climb_once))
    None
    (List.init (max 0 restarts) Fun.id)
