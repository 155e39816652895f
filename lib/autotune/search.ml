open Beast_core
open Beast_obs

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

let hill_climb ?rng ~budget ~objective plan feas =
  let rng = setup ?rng plan feas in
  let layers = List.length plan.Plan.iter_order in
  (* A climb stalls after this many nudges in a row improve nothing. *)
  let patience = 4 * layers in
  (* Nudge one layer; magnitude scales with its value so big ranges move
     in useful increments. The nearest survivor is always a legal move. *)
  let move point =
    let dim = Random.State.int rng layers in
    let delta = if Random.State.bool rng then 1 else -1 in
    let targets = Array.copy point in
    targets.(dim) <- targets.(dim) + (delta * max 1 (abs targets.(dim) / 8));
    point_of (Feasible.nearest feas targets)
  in
  (* Returns the climb's best point and the evaluations left; a nudge
     that lands back on the current point costs none. *)
  let rec climb point current stalled left =
    if left = 0 || stalled >= patience then (current, left)
    else
      let moved = move point in
      if moved = point then climb point current (stalled + 1) left
      else
        let cand = evaluate plan ~objective moved in
        if cand.Tuner.score > current.Tuner.score then
          climb moved cand 0 (left - 1)
        else climb point current (stalled + 1) (left - 1)
  in
  (* Each restart draws a fresh start and spends one evaluation on it,
     so the loop ends after exactly [budget] evaluations. *)
  let rec restart best i left =
    if left <= 0 then best
    else
      match Feasible.sample ~rng feas with
      | None -> None
      | Some p ->
        let current, left =
          Obs.with_span ~cat:"tune" ~args:[ ("restart", Obs.Int i) ]
            "search:climb"
            (fun () ->
              let point = point_of p in
              climb point (evaluate plan ~objective point) 0 (left - 1))
        in
        restart (better best (Some current)) (i + 1) left
  in
  restart None 0 budget
