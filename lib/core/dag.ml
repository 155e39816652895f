type t = {
  order : string array;  (* declaration order *)
  index : (string, int) Hashtbl.t;
  preds : int list array;  (* deps, by index, ascending *)
  succs : int list array;
  levels : int array;
}

type error =
  | Unknown_node of string * string
  | Cycle of string list

let pp_error ppf = function
  | Unknown_node (referrer, missing) ->
    Format.fprintf ppf "%s references unknown node %s" referrer missing
  | Cycle names ->
    Format.fprintf ppf "dependency cycle: %s" (String.concat " -> " names)

let create_untraced ~nodes ~edges =
  let order = Array.of_list nodes in
  let n = Array.length order in
  let index = Hashtbl.create (2 * n) in
  Array.iteri (fun i name -> Hashtbl.replace index name i) order;
  let preds = Array.make n [] and succs = Array.make n [] in
  let exception Bad of error in
  try
    let resolve referrer name =
      match Hashtbl.find_opt index name with
      | Some i -> i
      | None -> raise (Bad (Unknown_node (referrer, name)))
    in
    List.iter
      (fun (u, v) ->
        let ui = resolve v u and vi = resolve u v in
        if not (List.mem ui preds.(vi)) then begin
          preds.(vi) <- ui :: preds.(vi);
          succs.(ui) <- vi :: succs.(ui)
        end)
      edges;
    Array.iteri (fun i l -> preds.(i) <- List.sort Int.compare l) preds;
    Array.iteri (fun i l -> succs.(i) <- List.sort Int.compare l) succs;
    (* Longest-path levels via DFS; 0=white 1=grey 2=black. Grey hit = cycle. *)
    let levels = Array.make n (-1) in
    let color = Array.make n 0 in
    let rec visit path i =
      match color.(i) with
      | 2 -> levels.(i)
      | 1 ->
        let cycle =
          let rec take = function
            | [] -> []
            | j :: rest -> if j = i then [ j ] else j :: take rest
          in
          List.rev_map (fun j -> order.(j)) (take path)
        in
        raise (Bad (Cycle (cycle @ [ order.(i) ])))
      | _ ->
        color.(i) <- 1;
        let lvl =
          List.fold_left (fun acc p -> max acc (1 + visit (i :: path) p)) 0 preds.(i)
        in
        color.(i) <- 2;
        levels.(i) <- lvl;
        lvl
    in
    Array.iteri (fun i _ -> ignore (visit [] i)) order;
    Ok { order; index; preds; succs; levels }
  with Bad e -> Error e

let create ~nodes ~edges =
  let module Obs = Beast_obs.Obs in
  Beast_obs.Obs.time_phase "dag:build" @@ fun () ->
  Obs.with_span ~cat:"plan"
    ~args:
      [
        ("nodes", Obs.Int (List.length nodes));
        ("edges", Obs.Int (List.length edges));
      ]
    "dag:build"
    (fun () ->
      let r = create_untraced ~nodes ~edges in
      (match r with
      | Ok t ->
        let max_level = Array.fold_left max (-1) t.levels in
        Obs.instant ~cat:"plan"
          ~args:[ ("levels", Obs.Int (max_level + 1)) ]
          "dag:levels"
      | Error _ -> ());
      r)

let idx t name =
  match Hashtbl.find_opt t.index name with
  | Some i -> i
  | None -> invalid_arg ("Dag: unknown node " ^ name)

let nodes t = Array.to_list t.order
let deps_of t name = List.map (fun i -> t.order.(i)) t.preds.(idx t name)
let users_of t name = List.map (fun i -> t.order.(i)) t.succs.(idx t name)
let level t name = t.levels.(idx t name)

let level_sets t =
  let max_level = Array.fold_left max 0 t.levels in
  let buckets = Array.make (max_level + 1) [] in
  (* Traverse in reverse declaration order so each bucket ends up in
     declaration order. *)
  for i = Array.length t.order - 1 downto 0 do
    buckets.(t.levels.(i)) <- t.order.(i) :: buckets.(t.levels.(i))
  done;
  Array.to_list buckets

let topo_order t =
  let n = Array.length t.order in
  let in_deg = Array.make n 0 in
  Array.iteri (fun i preds -> in_deg.(i) <- List.length preds) t.preds;
  let module Pq = Set.Make (Int) in
  let ready = ref Pq.empty in
  Array.iteri (fun i d -> if d = 0 then ready := Pq.add i !ready) in_deg;
  let out = ref [] in
  while not (Pq.is_empty !ready) do
    let i = Pq.min_elt !ready in
    ready := Pq.remove i !ready;
    out := i :: !out;
    List.iter
      (fun s ->
        in_deg.(s) <- in_deg.(s) - 1;
        if in_deg.(s) = 0 then ready := Pq.add s !ready)
      t.succs.(i)
  done;
  List.rev_map (fun i -> t.order.(i)) !out

let closure step t name =
  let seen = Hashtbl.create 16 in
  let rec go i =
    List.iter
      (fun j ->
        if not (Hashtbl.mem seen j) then begin
          Hashtbl.replace seen j ();
          go j
        end)
      (step t i)
  in
  go (idx t name);
  Hashtbl.fold (fun i () acc -> t.order.(i) :: acc) seen []
  |> List.sort String.compare

let transitive_deps = closure (fun t i -> t.preds.(i))
let transitive_users = closure (fun t i -> t.succs.(i))

let to_dot ?(name = "beast") ?(attrs = fun _ -> "") t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "digraph %s {\n" name);
  Buffer.add_string buf "  rankdir=TB;\n";
  Array.iter
    (fun node ->
      let extra = attrs node in
      let extra = if extra = "" then "" else ", " ^ extra in
      Buffer.add_string buf
        (Printf.sprintf "  \"%s\" [label=\"%s\"%s];\n" node node extra))
    t.order;
  Array.iteri
    (fun i succs ->
      List.iter
        (fun j ->
          Buffer.add_string buf
            (Printf.sprintf "  \"%s\" -> \"%s\";\n" t.order.(i) t.order.(j)))
        succs)
    t.succs;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
