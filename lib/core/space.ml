type constraint_class =
  | Hard
  | Soft
  | Correctness

let constraint_class_name = function
  | Hard -> "hard"
  | Soft -> "soft"
  | Correctness -> "correctness"

type body =
  | E of Expr.t
  | F of {
      fn_deps : string list;
      fn : Expr.lookup -> Value.t;
    }

type iterator = {
  it_name : string;
  it_iter : Iter.t;
}

type derived = {
  dv_name : string;
  dv_body : body;
}

type constraint_ = {
  cn_name : string;
  cn_class : constraint_class;
  cn_body : body;
}

type t = {
  sp_name : string;
  mutable rev_settings : (string * Value.t) list;
  mutable rev_iterators : iterator list;
  mutable rev_deriveds : derived list;
  mutable rev_constraints : constraint_ list;
  names : (string, unit) Hashtbl.t;
}

type error =
  | Duplicate_name of string
  | Undefined_reference of string * string
  | Cyclic of string list

let pp_error ppf = function
  | Duplicate_name n -> Format.fprintf ppf "duplicate name %s" n
  | Undefined_reference (referrer, missing) ->
    Format.fprintf ppf "%s references undefined name %s" referrer missing
  | Cyclic names ->
    Format.fprintf ppf "cyclic dependency: %s" (String.concat " -> " names)

exception Error of error

let create ?(name = "space") () =
  {
    sp_name = name;
    rev_settings = [];
    rev_iterators = [];
    rev_deriveds = [];
    rev_constraints = [];
    names = Hashtbl.create 64;
  }

let name t = t.sp_name

let declare t n =
  if Hashtbl.mem t.names n then raise (Error (Duplicate_name n));
  Hashtbl.replace t.names n ()

let setting t n v =
  declare t n;
  t.rev_settings <- (n, v) :: t.rev_settings

let setting_i t n i = setting t n (Value.Int i)
let setting_s t n s = setting t n (Value.Str s)

(* A closure's lookup answers only the names it declares, so its deps
   are exactly what it reads: the planner places it by them, and
   Feasible and Provenance count through them. Every engine reads the
   space's closures, so this one guard covers every path. *)
let declared owner deps fn lookup =
  fn (fun name ->
      if List.mem name deps then lookup name
      else
        let msg = owner ^ " reads " ^ name ^ ", which it does not declare" in
        raise (Expr.Eval_error msg))

let rec guard_iter owner : Iter.t -> Iter.t = function
  | Closure g ->
    Closure { g with generate = declared owner g.gen_deps g.generate }
  | (Range _ | Values _) as it -> it
  | Union (a, b) -> Union (guard_iter owner a, guard_iter owner b)
  | Inter (a, b) -> Inter (guard_iter owner a, guard_iter owner b)
  | Concat (a, b) -> Concat (guard_iter owner a, guard_iter owner b)
  | Map (f, a) -> Map (f, guard_iter owner a)
  | Filter (p, a) -> Filter (p, guard_iter owner a)

let iterator t n it =
  declare t n;
  t.rev_iterators <- { it_name = n; it_iter = guard_iter n it } :: t.rev_iterators

let derived t n e =
  declare t n;
  t.rev_deriveds <- { dv_name = n; dv_body = E e } :: t.rev_deriveds

let derived_f t n ~deps fn =
  declare t n;
  let fn = declared n deps fn in
  t.rev_deriveds <- { dv_name = n; dv_body = F { fn_deps = deps; fn } } :: t.rev_deriveds

let constrain t ?(cls = Hard) n e =
  declare t n;
  t.rev_constraints <-
    { cn_name = n; cn_class = cls; cn_body = E e } :: t.rev_constraints

let constrain_f t ?(cls = Hard) n ~deps fn =
  declare t n;
  let fn = declared n deps fn in
  t.rev_constraints <-
    { cn_name = n; cn_class = cls; cn_body = F { fn_deps = deps; fn } }
    :: t.rev_constraints

let settings t = List.rev t.rev_settings
let iterators t = List.rev t.rev_iterators
let deriveds t = List.rev t.rev_deriveds
let constraints t = List.rev t.rev_constraints
let find_setting t n = List.assoc_opt n (settings t)

let body_deps = function
  | E e -> Expr.free_vars e
  | F { fn_deps; _ } -> List.sort_uniq String.compare fn_deps

(* Dependencies excluding settings (constants): the DAG of Section X. *)
let node_edges t =
  let is_setting n = List.mem_assoc n t.rev_settings in
  let dep_edges target deps =
    List.filter_map
      (fun d -> if is_setting d then None else Some (d, target))
      deps
  in
  let it_edges =
    List.concat_map
      (fun it -> dep_edges it.it_name (Iter.deps it.it_iter))
      (iterators t)
  in
  let dv_edges =
    List.concat_map (fun dv -> dep_edges dv.dv_name (body_deps dv.dv_body)) (deriveds t)
  in
  let cn_edges =
    List.concat_map
      (fun cn -> dep_edges cn.cn_name (body_deps cn.cn_body))
      (constraints t)
  in
  it_edges @ dv_edges @ cn_edges

(* Declarations are copied as they are: their closures are guarded
   already. *)
let filter_constraints t ~keep =
  let kept, dropped = List.partition keep t.rev_constraints in
  let names = Hashtbl.copy t.names in
  List.iter (fun cn -> Hashtbl.remove names cn.cn_name) dropped;
  { t with rev_constraints = kept; names }

let dag t =
  let nodes =
    List.map (fun it -> it.it_name) (iterators t)
    @ List.map (fun dv -> dv.dv_name) (deriveds t)
    @ List.map (fun cn -> cn.cn_name) (constraints t)
  in
  match Dag.create ~nodes ~edges:(node_edges t) with
  | Ok d -> Ok d
  | Error (Dag.Unknown_node (referrer, missing)) ->
    Error (Undefined_reference (referrer, missing))
  | Error (Dag.Cycle names) -> Error (Cyclic names)

let validate t =
  match dag t with
  | Ok _ -> Ok ()
  | Error e -> Error e

let build ?name f =
  let t = create ?name () in
  match f t with
  | () -> ( match validate t with Ok () -> Ok t | Error e -> Error e)
  | exception Error e -> Error e

let to_dot t =
  match dag t with
  | Error e -> raise (Error e)
  | Ok d ->
    let iterator_names =
      List.map (fun it -> it.it_name) (iterators t)
    in
    let derived_names = List.map (fun dv -> dv.dv_name) (deriveds t) in
    let attrs n =
      if List.mem n iterator_names then
        "shape=ellipse, style=filled, fillcolor=lightblue"
      else if List.mem n derived_names then
        "shape=box, style=filled, fillcolor=lightgrey"
      else "shape=octagon, style=filled, fillcolor=lightcoral"
    in
    Dag.to_dot ~name:t.sp_name ~attrs d
