(* Pruning-provenance summaries and their one merge (see pruned.mli).
   Everything sums, so a chunk's, a run's and a shard file's summary
   all fold into a total the same way. *)

type crow = {
  pc_name : string;
  pc_depth : int;
  pc_removed : int option;
}

type cell = {
  cell_value : int;
  cell_survivors : int;
  cell_removed : int;
}

type summary = {
  pv_iters : string list;
  pv_constraints : crow list;
  pv_depth_entries : int list;
  pv_cells : cell list;
}

let add_removed a b =
  match (a, b) with Some a, Some b -> Some (a + b) | _ -> None

let total_removed s =
  List.fold_left (fun acc r -> add_removed acc r.pc_removed) (Some 0)
    s.pv_constraints

(* Sort by value and sum the cells sharing one. *)
let union_cells cells =
  List.stable_sort (fun a b -> compare a.cell_value b.cell_value) cells
  |> List.fold_left
       (fun acc c ->
         match acc with
         | p :: rest when p.cell_value = c.cell_value ->
           {
             p with
             cell_survivors = p.cell_survivors + c.cell_survivors;
             cell_removed = p.cell_removed + c.cell_removed;
           }
           :: rest
         | _ -> c :: acc)
       []
  |> List.rev

let merge_summaries = function
  | [] -> Error "no provenance sections given"
  | first :: rest as all ->
    if List.exists (fun s -> s.pv_iters <> first.pv_iters) rest then
      Error "provenance: shards disagree on the loop order"
    else if
      List.exists
        (fun s ->
          List.length s.pv_constraints <> List.length first.pv_constraints
          || not
               (List.for_all2
                  (fun a b -> a.pc_name = b.pc_name && a.pc_depth = b.pc_depth)
                  s.pv_constraints first.pv_constraints))
        rest
    then Error "provenance: shards disagree on the constraint list"
    else if
      List.exists
        (fun s ->
          List.length s.pv_depth_entries <> List.length first.pv_depth_entries)
        rest
    then Error "provenance: shards disagree on the loop depth count"
    else
      Ok
        {
          pv_iters = first.pv_iters;
          pv_constraints =
            List.fold_left
              (fun acc s ->
                List.map2
                  (fun a r ->
                    { a with pc_removed = add_removed a.pc_removed r.pc_removed })
                  acc s.pv_constraints)
              first.pv_constraints rest;
          pv_depth_entries =
            List.fold_left
              (fun acc s -> List.map2 ( + ) acc s.pv_depth_entries)
              first.pv_depth_entries rest;
          pv_cells = union_cells (List.concat_map (fun s -> s.pv_cells) all);
        }

type collector = { mutex : Mutex.t; mutable acc : summary option }

let collector () = { mutex = Mutex.create (); acc = None }

let add c s =
  Mutex.protect c.mutex (fun () ->
      match c.acc with
      | None -> c.acc <- Some s
      | Some a -> (
        match merge_summaries [ a; s ] with
        | Ok m -> c.acc <- Some m
        | Error msg -> invalid_arg ("Pruned.add: " ^ msg)))
