type row = {
  constraint_name : string;
  constraint_class : Space.constraint_class;
  depth : int;
  fired : int;
  removed : int option;
}

type funnel = {
  space : string;
  total_points : int;
  survivors : int;
  rows : row list;
}

let survival_rate f =
  if f.total_points = 0 then 1.0
  else float_of_int f.survivors /. float_of_int f.total_points

let pruned_fraction f = 1.0 -. survival_rate f

(* The one pairing of stats rows with provenance rows. The canonical
   nest is linear (one loop per level), so evaluation order — the
   pre-order walk of the plan — is exactly a stable sort of the c_index
   rows by rejection depth, and the funnel can be read from a
   serialized run alone. *)
let of_run (t : Stats_io.t) =
  match t.Stats_io.provenance with
  | None -> Error "no \"provenance\" section (sweep with --explain-out FILE)"
  | Some p
    when List.compare_lengths t.Stats_io.constraints
           p.Provenance.pv_constraints
         <> 0 ->
    Error "the stats and provenance constraint lists differ in length"
  | Some p -> (
    let paired =
      List.combine t.Stats_io.constraints p.Provenance.pv_constraints
    in
    match
      List.find_opt
        (fun ((cr : Stats_io.constraint_row), (pc : Provenance.crow)) ->
          cr.Stats_io.cr_name <> pc.Provenance.pc_name)
        paired
    with
    | Some (cr, pc) ->
      Error
        (Printf.sprintf
           "stats row %S does not match provenance row %S (files from \
            different sweeps?)"
           cr.Stats_io.cr_name pc.Provenance.pc_name)
    | None ->
      let rows =
        List.map
          (fun ((cr : Stats_io.constraint_row), (pc : Provenance.crow)) ->
            {
              constraint_name = cr.Stats_io.cr_name;
              constraint_class = cr.Stats_io.cr_class;
              depth = pc.Provenance.pc_depth;
              fired = cr.Stats_io.cr_fired;
              removed = pc.Provenance.pc_removed;
            })
          paired
        |> List.stable_sort (fun a b -> compare a.depth b.depth)
      in
      let exact_removed =
        List.fold_left
          (fun acc r -> acc + Option.value r.removed ~default:0)
          0 rows
      in
      Ok
        {
          space = t.Stats_io.space;
          total_points = t.Stats_io.survivors + exact_removed;
          survivors = t.Stats_io.survivors;
          rows;
        })

(* Constraints in actual evaluation order with their rejection depths: a
   pre-order walk of the nest (hoisted constraints at shallow depths run
   first). *)
let evaluation_order (plan : Plan.t) =
  let rec walk depth acc steps =
    List.fold_left
      (fun acc (step : Plan.step) ->
        match step with
        | Plan.Check { c_name; c_class; _ } -> (c_name, c_class, depth) :: acc
        | Plan.Loop { l_body; _ } -> walk (depth + 1) acc l_body
        | Plan.Derive _ | Plan.Yield | Plan.Static_prune _ -> acc)
      acc steps
  in
  List.rev (walk 0 [] plan.Plan.steps)

let prefix_sweeps space =
  let survivors_with names =
    (Engine_staged.run_space
       (Space.filter_constraints space ~keep:(fun cn ->
            List.mem cn.Space.cn_name names)))
      .Engine.survivors
  in
  let plan = Plan.make_exn space in
  let full_stats = Engine_staged.run plan in
  let fired_of name =
    let _, _, k =
      Array.to_list full_stats.Engine.pruned
      |> List.find (fun (n, _, _) -> n = name)
    in
    k
  in
  let total = survivors_with [] in
  let rec build prev_survivors prefix = function
    | [] -> []
    | (name, cls, depth) :: rest ->
      let prefix = name :: prefix in
      let s = survivors_with prefix in
      {
        constraint_name = name;
        constraint_class = cls;
        depth;
        fired = fired_of name;
        removed = Some (prev_survivors - s);
      }
      :: build s prefix rest
  in
  {
    space = Space.name space;
    total_points = total;
    survivors = full_stats.Engine.survivors;
    rows = build total [] (evaluation_order plan);
  }

let funnel space =
  let module Obs = Beast_obs.Obs in
  Obs.with_span ~cat:"stats"
    ~args:[ ("space", Obs.Str (Space.name space)) ]
    "funnel"
    (fun () ->
      let plan = Plan.make_exn space in
      let stats, provenance =
        Provenance.with_collector (fun () -> Engine_staged.run plan)
      in
      let f =
        match of_run (Stats_io.of_stats ~plan ~provenance stats) with
        | Ok f -> f
        | Error msg -> failwith ("Stats.funnel: " ^ msg)
      in
      List.iter
        (fun r ->
          Obs.instant ~cat:"funnel"
            ~args:
              (("fired", Obs.Int r.fired)
              :: Option.fold r.removed ~none:[] ~some:(fun k ->
                     [ ("removed", Obs.Int k) ]))
            r.constraint_name)
        f.rows;
      f)

let exact f = List.for_all (fun r -> r.removed <> None) f.rows

let to_csv f =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "constraint,class,fired,removed\n";
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "%s,%s,%d,%s\n" r.constraint_name
           (Space.constraint_class_name r.constraint_class)
           r.fired
           (match r.removed with
           | Some k -> string_of_int k
           | None -> "")))
    f.rows;
  (* fired counts events (one firing can remove a whole subtree), removed
     counts points; they are different quantities, so the TOTAL row sums
     each column independently. A partial removed column has no total:
     its cell stays empty, like the unknown rows'. *)
  let total_fired = List.fold_left (fun acc r -> acc + r.fired) 0 f.rows in
  Buffer.add_string buf
    (Printf.sprintf "TOTAL,,%d,%s\n" total_fired
       (if exact f then string_of_int (f.total_points - f.survivors) else ""));
  Buffer.contents buf

let partial_note = "a removal count raised: removal counts are partial"

let pp ppf f =
  Format.fprintf ppf "funnel for %s: " f.space;
  if exact f then
    Format.fprintf ppf "%d points -> %d survivors (%.2f%% pruned)@\n"
      f.total_points f.survivors (100. *. pruned_fraction f)
  else Format.fprintf ppf "%d survivors (%s)@\n" f.survivors partial_note;
  List.iter
    (fun r ->
      Format.fprintf ppf "  %-30s %-11s fired %-10d removed %s@\n"
        r.constraint_name
        (Space.constraint_class_name r.constraint_class)
        r.fired
        (match r.removed with
        | Some k -> string_of_int k
        | None -> "?"))
    f.rows
