(* Single-pass pruning provenance (see provenance.mli). A firing at
   depth d abandons the nest below the check; every point of it is
   charged to this, the first rejecting constraint, so the removal is
   that sub-nest's size with every check removed, which
   Feasible.sub_nests counts: one memoized counter per plan, entered by
   every check at its own depth, a firing costing the loops it must
   enumerate up to the first memo hit. Density cells are keyed by the
   outermost iterator's VALUE, so they sum across any chunk or shard
   split. *)

open Beast_obs

type removal = Feasible.sub_nest =
  | Static of int
  | Dyn of (int array -> int)
  | Inexact

type attribution = {
  at_names : string array;  (* constraint names by c_index *)
  at_depth : int array;  (* rejection depth by c_index *)
  at_removal : removal array;
  at_iters : string list;
  at_n_loops : int;
  at_outer_slot : int;  (* -1 when the plan has no loops *)
}

let attribution (plan : Plan.t) =
  let n_c = Array.length plan.Plan.constraint_info in
  let n_loops = List.length plan.Plan.iter_order in
  let depth = Array.make n_c 0 in
  let rec walk d =
    List.iter (function
      | Plan.Check { c_index; _ } -> depth.(c_index) <- d
      | Plan.Loop { l_body; _ } -> walk (d + 1) l_body
      | Plan.Derive _ | Plan.Static_prune _ | Plan.Yield -> ())
  in
  walk 0 plan.Plan.steps;
  {
    at_names = Array.map fst plan.Plan.constraint_info;
    at_depth = depth;
    at_removal = Feasible.sub_nests plan;
    at_iters = plan.Plan.iter_order;
    at_n_loops = n_loops;
    at_outer_slot =
      (if n_loops > 0 then plan.Plan.iter_slots.(0) else -1);
  }

let removal_of at c = at.at_removal.(c)

(* ------------------------------------------------------------------ *)
(* Per-run accumulator                                                 *)
(* ------------------------------------------------------------------ *)

type cell_acc = {
  mutable ca_survivors : int;
  mutable ca_removed : int;
}

type local = {
  lat : attribution;
  l_removed : int array;
  l_exact : bool array;
  l_cells : (int, cell_acc) Hashtbl.t;
  mutable l_last : (int * cell_acc) option;
      (* the last outer value's cell: the outer value changes only once
         per outer iteration, so most lookups skip the table *)
}

let local_of at =
  let n_c = Array.length at.at_names in
  {
    lat = at;
    l_removed = Array.make (max 1 n_c) 0;
    l_exact = Array.make (max 1 n_c) true;
    l_cells = Hashtbl.create 64;
    l_last = None;
  }

let outer_cell local slots =
  let v = slots.(local.lat.at_outer_slot) in
  match local.l_last with
  | Some (w, c) when w = v -> c
  | _ ->
    let c =
      match Hashtbl.find_opt local.l_cells v with
      | Some c -> c
      | None ->
        let c = { ca_survivors = 0; ca_removed = 0 } in
        Hashtbl.replace local.l_cells v c;
        c
    in
    local.l_last <- Some (v, c);
    c

let charge local slots c k =
  let at = local.lat in
  local.l_removed.(c) <- local.l_removed.(c) + k;
  if at.at_depth.(c) > 0 && at.at_outer_slot >= 0 then begin
    let cell = outer_cell local slots in
    cell.ca_removed <- cell.ca_removed + k
  end

let fire local slots c =
  match local.lat.at_removal.(c) with
  | Static k -> charge local slots c k
  | Dyn f -> (
    match f slots with
    | k -> charge local slots c k
    (* A bound expression that divides by a not-yet-meaningful value, or
       a count past the counter's budget: the exact count is lost for
       this constraint, not for the run. *)
    | exception _ -> local.l_exact.(c) <- false)
  | Inexact -> local.l_exact.(c) <- false

(* Replay one Static_prune dead value: the engine never binds it, so
   substitute it into the live slot array for the duration of the
   firing (the sub-nest count and the density cell both read it),
   then restore. *)
let static_fire local slots ~slot ~value c =
  let saved = slots.(slot) in
  slots.(slot) <- value;
  fire local slots c;
  slots.(slot) <- saved

let hit local slots =
  let at = local.lat in
  if at.at_outer_slot >= 0 then begin
    let cell = outer_cell local slots in
    cell.ca_survivors <- cell.ca_survivors + 1
  end

(* ------------------------------------------------------------------ *)
(* Summaries: plain data in Beast_obs.Pruned, summed by its one merge   *)
(* ------------------------------------------------------------------ *)

type crow = Pruned.crow = {
  pc_name : string;
  pc_depth : int;
  pc_removed : int option;
}

type cell = Pruned.cell = {
  cell_value : int;
  cell_survivors : int;
  cell_removed : int;
}

type summary = Pruned.summary = {
  pv_iters : string list;
  pv_constraints : crow list;
  pv_depth_entries : int list;
  pv_cells : cell list;
}

let summary_of_local ~depth_entries local =
  let at = local.lat in
  {
    pv_iters = at.at_iters;
    pv_constraints =
      List.init (Array.length at.at_names) (fun i ->
          {
            pc_name = at.at_names.(i);
            pc_depth = at.at_depth.(i);
            pc_removed =
              (if local.l_exact.(i) then Some local.l_removed.(i) else None);
          });
    pv_depth_entries = List.init at.at_n_loops (fun d -> depth_entries.(d));
    pv_cells =
      Hashtbl.fold
        (fun v (c : cell_acc) acc ->
          { cell_value = v; cell_survivors = c.ca_survivors;
            cell_removed = c.ca_removed }
          :: acc)
        local.l_cells []
      |> List.sort (fun a b -> compare a.cell_value b.cell_value);
  }

let enabled () = (Obs.current ()).Obs.provenance <> None

let with_collector f =
  let c = Pruned.collector () in
  let x =
    Obs.with_context { (Obs.current ()) with Obs.provenance = Some c } f
  in
  match c.Pruned.acc with
  | Some s -> (x, s)
  | None -> invalid_arg "Provenance.with_collector: no run was collected"

(* ------------------------------------------------------------------ *)
(* Serialization                                                       *)
(* ------------------------------------------------------------------ *)

let to_jsonx s =
  Jsonx.Obj
    [
      ("iters", Jsonx.Arr (List.map (fun v -> Jsonx.Str v) s.pv_iters));
      ( "constraints",
        Jsonx.Arr
          (List.map
             (fun r ->
               Jsonx.Obj
                 [
                   ("name", Jsonx.Str r.pc_name);
                   ("depth", Jsonx.Int r.pc_depth);
                   ( "removed",
                     match r.pc_removed with
                     | Some k -> Jsonx.Int k
                     | None -> Jsonx.Null );
                 ])
             s.pv_constraints) );
      ( "depth_entries",
        Jsonx.Arr (List.map (fun k -> Jsonx.Int k) s.pv_depth_entries) );
      ( "cells",
        Jsonx.Arr
          (List.map
             (fun c ->
               Jsonx.Obj
                 [
                   ("value", Jsonx.Int c.cell_value);
                   ("survivors", Jsonx.Int c.cell_survivors);
                   ("removed", Jsonx.Int c.cell_removed);
                 ])
             s.pv_cells) );
    ]

let of_jsonx (json : Jsonx.t) : (summary, string) result =
  try
    let iters =
      List.map
        (fun v -> Jsonx.to_str "iters" v)
        (Jsonx.to_list "iters" (Jsonx.member "iters" json))
    in
    let constraints =
      List.map
        (fun row ->
          {
            pc_name = Jsonx.to_str "name" (Jsonx.member "name" row);
            pc_depth = Jsonx.to_int "depth" (Jsonx.member "depth" row);
            pc_removed =
              (match Jsonx.member "removed" row with
              | Jsonx.Null -> None
              | v -> Some (Jsonx.to_int "removed" v));
          })
        (Jsonx.to_list "constraints" (Jsonx.member "constraints" json))
    in
    let depth_entries =
      List.map
        (fun v -> Jsonx.to_int "depth_entries" v)
        (Jsonx.to_list "depth_entries" (Jsonx.member "depth_entries" json))
    in
    let cells =
      List.map
        (fun row ->
          {
            cell_value = Jsonx.to_int "value" (Jsonx.member "value" row);
            cell_survivors =
              Jsonx.to_int "survivors" (Jsonx.member "survivors" row);
            cell_removed = Jsonx.to_int "removed" (Jsonx.member "removed" row);
          })
        (Jsonx.to_list "cells" (Jsonx.member "cells" json))
    in
    Ok
      {
        pv_iters = iters;
        pv_constraints = constraints;
        pv_depth_entries = depth_entries;
        pv_cells = cells;
      }
  with Jsonx.Error msg -> Error msg
