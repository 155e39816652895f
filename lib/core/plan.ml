type cexpr =
  | CLit of int
  | CSlot of int
  | CUn of Expr.unop * cexpr
  | CBin of Expr.binop * cexpr * cexpr
  | CIf of cexpr * cexpr * cexpr
  | CCall of Expr.builtin * cexpr list

type compute =
  | CE of cexpr
  | CF of int list * (int array -> int)

type citer =
  | CRange of cexpr * cexpr * cexpr
  | CValues of int array
  | CDyn of int list * (int array -> int array)

type step =
  | Derive of {
      d_name : string;
      d_slot : int;
      d_compute : compute;
    }
  | Check of {
      c_name : string;
      c_class : Space.constraint_class;
      c_index : int;
      c_compute : compute;
    }
  | Loop of {
      l_var : string;
      l_slot : int;
      l_iter : citer;
      l_body : step list;
    }
  | Static_prune of {
      sp_var : string;
      sp_slot : int;
      sp_dead : (int * int) array;
    }
  | Yield

type t = {
  space_name : string;
  steps : step list;
  n_slots : int;
  slot_names : string array;
  iter_order : string list;
  iter_slots : int array;
  constraint_info : (string * Space.constraint_class) array;
  settings : (string * Value.t) list;
  slot_index : (string, int) Hashtbl.t;
}

type error =
  | Space_error of Space.error
  | Unsupported of string

let pp_error ppf = function
  | Space_error e -> Space.pp_error ppf e
  | Unsupported msg -> Format.fprintf ppf "unsupported: %s" msg

exception Error of error

let unsupported fmt = Printf.ksprintf (fun s -> raise (Error (Unsupported s))) fmt

(* ------------------------------------------------------------------ *)
(* cexpr evaluation                                                    *)
(* ------------------------------------------------------------------ *)

let eval_int_binop op a b =
  match (op : Expr.binop) with
  | Add -> a + b
  | Sub -> a - b
  | Mul -> a * b
  | Div -> if b = 0 then raise Division_by_zero else a / b
  | Mod -> if b = 0 then raise Division_by_zero else a mod b
  | Eq -> if a = b then 1 else 0
  | Ne -> if a <> b then 1 else 0
  | Lt -> if a < b then 1 else 0
  | Le -> if a <= b then 1 else 0
  | Gt -> if a > b then 1 else 0
  | Ge -> if a >= b then 1 else 0
  | And -> if a <> 0 && b <> 0 then 1 else 0
  | Or -> if a <> 0 || b <> 0 then 1 else 0

let rec eval_cexpr slots e =
  match e with
  | CLit k -> k
  | CSlot i -> slots.(i)
  | CUn (Neg, a) -> -eval_cexpr slots a
  | CUn (Not, a) -> if eval_cexpr slots a = 0 then 1 else 0
  | CBin (And, a, b) ->
    if eval_cexpr slots a = 0 then 0 else if eval_cexpr slots b = 0 then 0 else 1
  | CBin (Or, a, b) ->
    if eval_cexpr slots a <> 0 then 1 else if eval_cexpr slots b <> 0 then 1 else 0
  | CBin (op, a, b) -> eval_int_binop op (eval_cexpr slots a) (eval_cexpr slots b)
  | CIf (c, t, f) ->
    if eval_cexpr slots c <> 0 then eval_cexpr slots t else eval_cexpr slots f
  | CCall (Min, [ a; b ]) -> min (eval_cexpr slots a) (eval_cexpr slots b)
  | CCall (Max, [ a; b ]) -> max (eval_cexpr slots a) (eval_cexpr slots b)
  | CCall (Abs, [ a ]) -> abs (eval_cexpr slots a)
  | CCall (Ceil_div, [ a; b ]) ->
    let d = eval_cexpr slots b in
    if d = 0 then raise Division_by_zero else (eval_cexpr slots a + d - 1) / d
  | CCall _ -> invalid_arg "eval_cexpr: malformed builtin call"

module Iset = Set.Make (Int)

let cexpr_slots e =
  let rec go acc = function
    | CLit _ -> acc
    | CSlot i -> Iset.add i acc
    | CUn (_, a) -> go acc a
    | CBin (_, a, b) -> go (go acc a) b
    | CIf (c, t, f) -> go (go (go acc c) t) f
    | CCall (_, args) -> List.fold_left go acc args
  in
  Iset.elements (go Iset.empty e)

(* A cexpr with no slot reads is a compile-time constant (settings were
   folded during lowering); evaluate it once so chunk bounds stay
   literal in the common case and golden plan dumps remain readable. *)
let rec slot_free = function
  | CLit _ -> true
  | CSlot _ -> false
  | CUn (_, a) -> slot_free a
  | CBin (_, a, b) -> slot_free a && slot_free b
  | CIf (c, t, f) -> slot_free c && slot_free t && slot_free f
  | CCall (_, args) -> List.for_all slot_free args

let static_cexpr e =
  if slot_free e then try Some (eval_cexpr [||] e) with _ -> None else None

(* ------------------------------------------------------------------ *)
(* Specialising compiler                                               *)
(* ------------------------------------------------------------------ *)

(* [compile_cexpr] and [compile_cond] are the staged twins of
   [eval_cexpr]: the AST is walked once, and what runs per evaluation
   is a closure over the slot array. The compiler specialises on shape:

   - a slot-free subtree folds to its value (one that raises is kept,
     so it still raises when, and only when, it is evaluated), and a
     [?:] with a slot-free test keeps only the chosen branch;
   - slot and literal operands of [+ - * / mod], of comparisons and of
     [min]/[max] fuse into their parent's closure, so [s.(i) * s.(j)]
     is one call rather than three;
   - comparisons, [&&], [||], [!] and [?:] tests compile to [bool]
     closures, so a constraint never builds a 0/1 int only to compare
     it with 0 again.

   Operand evaluation order may differ from [eval_cexpr]'s. That is
   unobservable: expressions are pure, and the only exception they
   raise is [Division_by_zero]. *)

type operand =
  | OLit of int
  | OSlot of int
  | OFn of (int array -> int)

let closure_of = function
  | OLit k -> fun _ -> k
  | OSlot i -> fun s -> s.(i)
  | OFn f -> f

let int_min (a : int) b = if a <= b then a else b
let int_max (a : int) b = if a >= b then a else b

(* [+] and [*] commute, so a leaf moves right and four shapes cover
   them; [-], [/] and [mod] need seven. Integer [/] and [mod] raise
   [Division_by_zero] themselves. *)
let compile_arith (op : Expr.binop) a b : int array -> int =
  let a, b =
    match (op, a, b) with
    | (Add | Mul), (OLit _ | OSlot _), OFn _ | (Add | Mul), OLit _, OSlot _ ->
      (b, a)
    | _ -> (a, b)
  in
  match (op, a, b) with
  | Add, OSlot i, OSlot j -> fun s -> s.(i) + s.(j)
  | Add, OSlot i, OLit k -> fun s -> s.(i) + k
  | Add, OFn f, OLit k -> fun s -> f s + k
  | Add, OFn f, OSlot j -> fun s -> f s + s.(j)
  | Mul, OSlot i, OSlot j -> fun s -> s.(i) * s.(j)
  | Mul, OSlot i, OLit k -> fun s -> s.(i) * k
  | Mul, OFn f, OLit k -> fun s -> f s * k
  | Mul, OFn f, OSlot j -> fun s -> f s * s.(j)
  | Sub, OSlot i, OSlot j -> fun s -> s.(i) - s.(j)
  | Sub, OSlot i, OLit k -> fun s -> s.(i) - k
  | Sub, OLit k, OSlot j -> fun s -> k - s.(j)
  | Sub, OFn f, OLit k -> fun s -> f s - k
  | Sub, OFn f, OSlot j -> fun s -> f s - s.(j)
  | Sub, OLit k, OFn g -> fun s -> k - g s
  | Sub, OSlot i, OFn g -> fun s -> s.(i) - g s
  | Div, OSlot i, OSlot j -> fun s -> s.(i) / s.(j)
  | Div, OSlot i, OLit k -> fun s -> s.(i) / k
  | Div, OLit k, OSlot j -> fun s -> k / s.(j)
  | Div, OFn f, OLit k -> fun s -> f s / k
  | Div, OFn f, OSlot j -> fun s -> f s / s.(j)
  | Div, OLit k, OFn g -> fun s -> k / g s
  | Div, OSlot i, OFn g -> fun s -> s.(i) / g s
  | Mod, OSlot i, OSlot j -> fun s -> s.(i) mod s.(j)
  | Mod, OSlot i, OLit k -> fun s -> s.(i) mod k
  | Mod, OLit k, OSlot j -> fun s -> k mod s.(j)
  | Mod, OFn f, OLit k -> fun s -> f s mod k
  | Mod, OFn f, OSlot j -> fun s -> f s mod s.(j)
  | Mod, OLit k, OFn g -> fun s -> k mod g s
  | Mod, OSlot i, OFn g -> fun s -> s.(i) mod g s
  | _ -> (
    let f = closure_of a and g = closure_of b in
    match op with
    | Add -> fun s -> f s + g s
    | Sub -> fun s -> f s - g s
    | Mul -> fun s -> f s * g s
    | Div -> fun s -> f s / g s
    | Mod -> fun s -> f s mod g s
    | Eq | Ne | Lt | Le | Gt | Ge | And | Or ->
      invalid_arg "Plan.compile_arith: not an arithmetic operator")

(* A leaf moves right by mirroring the comparison ([k < e] is [e > k]),
   leaving five shapes per operator. *)
let compile_cmp (op : Expr.binop) a b : int array -> bool =
  let op, a, b =
    match (a, b) with
    | (OLit _ | OSlot _), OFn _ | OLit _, OSlot _ ->
      let mirror : Expr.binop =
        match op with Lt -> Gt | Gt -> Lt | Le -> Ge | Ge -> Le | op -> op
      in
      (mirror, b, a)
    | _ -> (op, a, b)
  in
  match (op, a, b) with
  | Eq, OSlot i, OLit k -> fun s -> s.(i) = k
  | Eq, OSlot i, OSlot j -> fun s -> s.(i) = s.(j)
  | Eq, OFn f, OLit k -> fun s -> f s = k
  | Eq, OFn f, OSlot j -> fun s -> f s = s.(j)
  | Eq, OFn f, OFn g -> fun s -> f s = g s
  | Ne, OSlot i, OLit k -> fun s -> s.(i) <> k
  | Ne, OSlot i, OSlot j -> fun s -> s.(i) <> s.(j)
  | Ne, OFn f, OLit k -> fun s -> f s <> k
  | Ne, OFn f, OSlot j -> fun s -> f s <> s.(j)
  | Ne, OFn f, OFn g -> fun s -> f s <> g s
  | Lt, OSlot i, OLit k -> fun s -> s.(i) < k
  | Lt, OSlot i, OSlot j -> fun s -> s.(i) < s.(j)
  | Lt, OFn f, OLit k -> fun s -> f s < k
  | Lt, OFn f, OSlot j -> fun s -> f s < s.(j)
  | Lt, OFn f, OFn g -> fun s -> f s < g s
  | Le, OSlot i, OLit k -> fun s -> s.(i) <= k
  | Le, OSlot i, OSlot j -> fun s -> s.(i) <= s.(j)
  | Le, OFn f, OLit k -> fun s -> f s <= k
  | Le, OFn f, OSlot j -> fun s -> f s <= s.(j)
  | Le, OFn f, OFn g -> fun s -> f s <= g s
  | Gt, OSlot i, OLit k -> fun s -> s.(i) > k
  | Gt, OSlot i, OSlot j -> fun s -> s.(i) > s.(j)
  | Gt, OFn f, OLit k -> fun s -> f s > k
  | Gt, OFn f, OSlot j -> fun s -> f s > s.(j)
  | Gt, OFn f, OFn g -> fun s -> f s > g s
  | Ge, OSlot i, OLit k -> fun s -> s.(i) >= k
  | Ge, OSlot i, OSlot j -> fun s -> s.(i) >= s.(j)
  | Ge, OFn f, OLit k -> fun s -> f s >= k
  | Ge, OFn f, OSlot j -> fun s -> f s >= s.(j)
  | Ge, OFn f, OFn g -> fun s -> f s >= g s
  | _ ->
    (* Two literals: only reached when the caller did not fold. *)
    let f = closure_of a and g = closure_of b in
    fun s -> eval_int_binop op (f s) (g s) <> 0

let compile_minmax (b : Expr.builtin) x y : int array -> int =
  let x, y =
    match (x, y) with
    | (OLit _ | OSlot _), OFn _ | OLit _, OSlot _ -> (y, x)
    | _ -> (x, y)
  in
  match (b, x, y) with
  | Min, OSlot i, OLit k -> fun s -> int_min s.(i) k
  | Min, OSlot i, OSlot j -> fun s -> int_min s.(i) s.(j)
  | Min, OFn f, OLit k -> fun s -> int_min (f s) k
  | Min, OFn f, OSlot j -> fun s -> int_min (f s) s.(j)
  | Max, OSlot i, OLit k -> fun s -> int_max s.(i) k
  | Max, OSlot i, OSlot j -> fun s -> int_max s.(i) s.(j)
  | Max, OFn f, OLit k -> fun s -> int_max (f s) k
  | Max, OFn f, OSlot j -> fun s -> int_max (f s) s.(j)
  | _ -> (
    let f = closure_of x and g = closure_of y in
    match b with
    | Max -> fun s -> int_max (f s) (g s)
    | _ -> fun s -> int_min (f s) (g s))

let rec compile_cexpr e = closure_of (operand e)

and operand e =
  match e with
  | CLit k -> OLit k
  | CSlot i -> OSlot i
  | _ -> (
    match static_cexpr e with Some k -> OLit k | None -> OFn (compile_node e))

and compile_node e : int array -> int =
  match e with
  | CLit k -> fun _ -> k
  | CSlot i -> fun s -> s.(i)
  | CUn (Neg, a) -> (
    match operand a with
    | OSlot i -> fun s -> -s.(i)
    | a ->
      let f = closure_of a in
      fun s -> -f s)
  | CUn (Not, _) | CBin ((Eq | Ne | Lt | Le | Gt | Ge | And | Or), _, _) ->
    let c = compile_cond e in
    fun s -> if c s then 1 else 0
  | CBin (((Add | Sub | Mul | Div | Mod) as op), a, b) ->
    compile_arith op (operand a) (operand b)
  | CIf (c, t, f) -> (
    match static_cexpr c with
    | Some v -> compile_cexpr (if v <> 0 then t else f)
    | None ->
      let c = compile_cond c and t = compile_cexpr t and f = compile_cexpr f in
      fun s -> if c s then t s else f s)
  | CCall (((Min | Max) as b), [ x; y ]) -> compile_minmax b (operand x) (operand y)
  | CCall (Abs, [ a ]) ->
    let f = compile_cexpr a in
    fun s -> abs (f s)
  | CCall (Ceil_div, [ a; b ]) ->
    let a = compile_cexpr a and b = compile_cexpr b in
    fun s ->
      let d = b s in
      if d = 0 then raise Division_by_zero else (a s + d - 1) / d
  | CCall _ -> invalid_arg "compile_cexpr: malformed builtin call"

and compile_cond e : int array -> bool =
  match static_cexpr e with
  | Some v ->
    let b = v <> 0 in
    fun _ -> b
  | None -> (
    match e with
    | CBin (((Eq | Ne | Lt | Le | Gt | Ge) as op), a, b) ->
      compile_cmp op (operand a) (operand b)
    | CBin (And, a, b) ->
      let a = compile_cond a and b = compile_cond b in
      fun s -> a s && b s
    | CBin (Or, a, b) ->
      let a = compile_cond a and b = compile_cond b in
      fun s -> a s || b s
    | CUn (Not, a) ->
      let a = compile_cond a in
      fun s -> not (a s)
    | CIf (c, t, f) -> (
      match static_cexpr c with
      | Some v -> compile_cond (if v <> 0 then t else f)
      | None ->
        let c = compile_cond c and t = compile_cond t and f = compile_cond f in
        fun s -> if c s then t s else f s)
    | CSlot i -> fun s -> s.(i) <> 0
    | _ ->
      let f = compile_node e in
      fun s -> f s <> 0)

(* ------------------------------------------------------------------ *)
(* Planning                                                            *)
(* ------------------------------------------------------------------ *)

module Smap = Map.Make (String)

let value_to_cint name v =
  match (v : Value.t) with
  | Int i -> i
  | Bool true -> 1
  | Bool false -> 0
  | Float _ | Str _ ->
    unsupported "%s: non-integer value %s in enumeration path" name
      (Value.to_string v)

let rec lower_expr ~name slot_map e =
  match (e : Expr.t) with
  | Lit v -> CLit (value_to_cint name v)
  | Var x -> (
    match Smap.find_opt x slot_map with
    | Some i -> CSlot i
    | None -> unsupported "%s: variable %s has no slot" name x)
  | Unop (op, a) -> CUn (op, lower_expr ~name slot_map a)
  | Binop (op, a, b) ->
    CBin (op, lower_expr ~name slot_map a, lower_expr ~name slot_map b)
  | If (c, t, f) ->
    CIf
      ( lower_expr ~name slot_map c,
        lower_expr ~name slot_map t,
        lower_expr ~name slot_map f )
  | Call (b, args) -> CCall (b, List.map (lower_expr ~name slot_map) args)

let make_untraced ~hoist ~order space =
  match Space.dag space with
  | Error e -> Result.Error (Space_error e)
  | Ok dag -> (
    try
      let settings = Space.settings space in
      let setting_tbl = Hashtbl.create 16 in
      List.iter (fun (n, v) -> Hashtbl.replace setting_tbl n v) settings;
      let resolve_setting n = Hashtbl.find_opt setting_tbl n in
      let fold e = Expr.simplify (Expr.subst resolve_setting e) in
      let iterators = Space.iterators space in
      let deriveds = Space.deriveds space in
      let constraints = Space.constraints space in
      let iterator_names =
        List.map (fun it -> it.Space.it_name) iterators
      in
      let is_iterator n = List.mem n iterator_names in
      (* Loop order: topological by default, user override if given. *)
      let iter_order =
        match order with
        | None -> List.filter is_iterator (Dag.topo_order dag)
        | Some names ->
          if
            List.sort String.compare names
            <> List.sort String.compare iterator_names
          then
            unsupported "order override must be a permutation of the iterators"
          else names
      in
      let loop_index = Hashtbl.create 16 in
      List.iteri (fun i n -> Hashtbl.replace loop_index n (i + 1)) iter_order;
      let n_loops = List.length iter_order in
      (* Depth of each node: loop index for iterators, max dep depth else. *)
      let depth_memo = Hashtbl.create 64 in
      let rec depth n =
        match Hashtbl.find_opt depth_memo n with
        | Some d -> d
        | None ->
          let d =
            match Hashtbl.find_opt loop_index n with
            | Some i ->
              (* An iterator's bounds must be computable before its loop
                 opens. *)
              List.iter
                (fun dep ->
                  if depth dep >= i then
                    unsupported
                      "iterator %s (loop %d) depends on %s bound at depth %d" n
                      i dep (depth dep))
                (Dag.deps_of dag n);
              i
            | None ->
              List.fold_left (fun acc dep -> max acc (depth dep)) 0
                (Dag.deps_of dag n)
          in
          Hashtbl.replace depth_memo n d;
          d
      in
      List.iter (fun n -> ignore (depth n)) (Dag.nodes dag);
      (* Unhoisted, a derived variable still has to be bound before the
         first loop whose iterator reads it (directly or through other
         derived variables): just inside the enclosing loop. *)
      let unhoisted = Hashtbl.create 16 in
      let rec bind_by d n =
        if (not (is_iterator n)) && not (Hashtbl.mem unhoisted n) then begin
          Hashtbl.replace unhoisted n d;
          List.iter (bind_by d) (Dag.deps_of dag n)
        end
      in
      List.iteri
        (fun i it -> List.iter (bind_by i) (Dag.deps_of dag it))
        iter_order;
      (* Slots: iterators first (loop order), then derived variables. *)
      let slot_list =
        iter_order @ List.map (fun dv -> dv.Space.dv_name) deriveds
      in
      let slot_map =
        List.fold_left
          (fun (m, i) n -> (Smap.add n i m, i + 1))
          (Smap.empty, 0) slot_list
        |> fst
      in
      let slot_of n = Smap.find n slot_map in
      let n_slots = List.length slot_list in
      let slot_names = Array.of_list slot_list in
      (* Lookup for opaque bodies: settings + bound slots. *)
      let lookup_of_slots slots name =
        match Hashtbl.find_opt setting_tbl name with
        | Some v -> v
        | None -> (
          match Smap.find_opt name slot_map with
          | Some i -> Value.Int slots.(i)
          | None -> raise Not_found)
      in
      (* A closure's reads are its declared deps; settings have no slot. *)
      let dep_slots deps =
        List.sort_uniq Int.compare
          (List.filter_map (fun n -> Smap.find_opt n slot_map) deps)
      in
      let lower_body name = function
        | Space.E e -> CE (lower_expr ~name slot_map (fold e))
        | Space.F { fn_deps; fn } ->
          CF
            ( dep_slots fn_deps,
              fun slots -> Value.to_int (fn (lookup_of_slots slots)) )
      in
      let static_lookup name =
        match Hashtbl.find_opt setting_tbl name with
        | Some v -> v
        | None -> raise Not_found
      in
      let rec fold_iter (it : Iter.t) : Iter.t =
        match it with
        | Range (a, b, c) -> Range (fold a, fold b, fold c)
        | Values _ | Closure _ -> it
        | Union (x, y) -> Union (fold_iter x, fold_iter y)
        | Inter (x, y) -> Inter (fold_iter x, fold_iter y)
        | Concat (x, y) -> Concat (fold_iter x, fold_iter y)
        | Map (f, x) -> Map (f, fold_iter x)
        | Filter (p, x) -> Filter (p, fold_iter x)
      in
      let iter_is_static it =
        List.for_all (fun d -> Hashtbl.mem setting_tbl d) (Iter.deps it)
      in
      let lower_iter name (it : Iter.t) : citer =
        let it = fold_iter it in
        match it with
        | Range (a, b, c) ->
          CRange
            ( lower_expr ~name slot_map a,
              lower_expr ~name slot_map b,
              lower_expr ~name slot_map c )
        | Values vs ->
          CValues (Array.of_list (List.map (value_to_cint name) vs))
        | Closure _ | Union _ | Inter _ | Concat _ | Map _ | Filter _ ->
          if iter_is_static it then
            CValues
              (Array.map (value_to_cint name) (Iter.materialize static_lookup it))
          else
            CDyn
              ( dep_slots (Iter.deps it),
                fun slots ->
                  Array.map (value_to_cint name)
                    (Iter.materialize (lookup_of_slots slots) it) )
      in
      (* Group non-iterator nodes by depth, preserving topological order. *)
      let topo = Dag.topo_order dag in
      let groups = Array.make (n_loops + 1) [] in
      let constraint_info = ref [] in
      let n_constraints = ref 0 in
      let dv_by_name =
        List.fold_left
          (fun m dv -> Smap.add dv.Space.dv_name dv m)
          Smap.empty deriveds
      in
      let cn_by_name =
        List.fold_left
          (fun m cn -> Smap.add cn.Space.cn_name cn m)
          Smap.empty constraints
      in
      List.iter
        (fun n ->
          if not (is_iterator n) then begin
            let d =
              if hoist then depth n
              else Option.value (Hashtbl.find_opt unhoisted n) ~default:n_loops
            in
            let step =
              match Smap.find_opt n dv_by_name with
              | Some dv ->
                Derive
                  {
                    d_name = n;
                    d_slot = slot_of n;
                    d_compute = lower_body n dv.Space.dv_body;
                  }
              | None ->
                let cn = Smap.find n cn_by_name in
                let idx = !n_constraints in
                incr n_constraints;
                constraint_info := (n, cn.Space.cn_class) :: !constraint_info;
                Check
                  {
                    c_name = n;
                    c_class = cn.Space.cn_class;
                    c_index = idx;
                    c_compute = lower_body n cn.Space.cn_body;
                  }
            in
            groups.(d) <- step :: groups.(d)
          end)
        topo;
      Array.iteri (fun i g -> groups.(i) <- List.rev g) groups;
      let iter_arr = Array.of_list iter_order in
      let rec build d =
        let tail =
          if d = n_loops then [ Yield ]
          else
            let var = iter_arr.(d) in
            let it =
              (List.find (fun i -> i.Space.it_name = var) iterators).Space.it_iter
            in
            [
              Loop
                {
                  l_var = var;
                  l_slot = slot_of var;
                  l_iter = lower_iter var it;
                  l_body = build (d + 1);
                };
            ]
        in
        groups.(d) @ tail
      in
      Ok
        {
          space_name = Space.name space;
          steps = build 0;
          n_slots;
          slot_names;
          iter_order;
          iter_slots = Array.map slot_of iter_arr;
          constraint_info = Array.of_list (List.rev !constraint_info);
          settings;
          slot_index =
            (let tbl = Hashtbl.create (2 * n_slots) in
             Smap.iter (fun name slot -> Hashtbl.replace tbl name slot) slot_map;
             tbl);
        }
    with Error err -> Result.Error err)

(* Planning is traced as one span per [make] with a summary instant on
   success, so a Chrome trace shows how long plan construction took
   relative to the sweep it feeds. *)
let make ?(hoist = true) ?order space =
  let module Obs = Beast_obs.Obs in
  Beast_obs.Obs.time_phase "plan:make" @@ fun () ->
  Obs.with_span ~cat:"plan"
    ~args:[ ("space", Obs.Str (Space.name space)) ]
    "plan:make"
    (fun () ->
      let r = make_untraced ~hoist ~order space in
      (match r with
      | Ok p ->
        Obs.instant ~cat:"plan"
          ~args:
            [
              ("loops", Obs.Int (List.length p.iter_order));
              ("constraints", Obs.Int (Array.length p.constraint_info));
              ("slots", Obs.Int p.n_slots);
            ]
          "plan:built"
      | Error _ -> ());
      r)

let make_exn ?hoist ?order space =
  match make ?hoist ?order space with
  | Ok p -> p
  | Error e -> raise (Error e)

(* Values [lo], [lo + step], ... below [hi], for [lo < hi] and
   [step > 0] (or [step = min_int], standing for its magnitude). When
   [hi - lo] overflows, the span exceeds [max_int] and the count is
   taken in 64-bit arithmetic, where the difference of two OCaml ints
   always fits; a count beyond [max_int] saturates. *)
let count_steps ~lo ~hi ~step =
  let span = hi - lo in
  if span > 0 then ((span - 1) / step) + 1
  else
    let open Int64 in
    let n =
      add (div (pred (sub (of_int hi) (of_int lo))) (abs (of_int step))) 1L
    in
    if compare n (of_int Stdlib.max_int) > 0 then Stdlib.max_int else to_int n

let trip_count ~start ~stop ~step =
  if step > 0 then if start < stop then count_steps ~lo:start ~hi:stop ~step else 0
  else if step < 0 then
    if start > stop then count_steps ~lo:stop ~hi:start ~step:(-step) else 0
  else 0

(* ------------------------------------------------------------------ *)
(* Solved checks                                                       *)
(* ------------------------------------------------------------------ *)

type solved = {
  sv_index : int;
  sv_coef : cexpr;
  sv_target : cexpr;
  sv_binds : int list;
}

(* Slots a step list binds, its nested loops included. *)
let bound_slots steps =
  let rec go acc = function
    | [] -> acc
    | Derive { d_slot; _ } :: rest -> go (Iset.add d_slot acc) rest
    | Loop { l_slot; l_body; _ } :: rest ->
      go (go (Iset.add l_slot acc) l_body) rest
    | (Check _ | Static_prune _ | Yield) :: rest -> go acc rest
  in
  go Iset.empty steps

(* Division by a non-zero literal is the only division that cannot
   raise. *)
let rec raise_free = function
  | CLit _ | CSlot _ -> true
  | CUn (_, a) -> raise_free a
  | CBin ((Div | Mod), a, CLit k) | CCall (Ceil_div, [ a; CLit k ]) ->
    k <> 0 && raise_free a
  | CBin ((Div | Mod), _, _) | CCall (Ceil_div, _) -> false
  | CBin (_, a, b) -> raise_free a && raise_free b
  | CIf (c, t, f) -> raise_free c && raise_free t && raise_free f
  | CCall (_, args) -> List.for_all raise_free args

(* Skipping a value skips the derived values the body binds before its
   first check, which is unobservable only when none of them can
   raise. *)
let rec first_check = function
  | Derive { d_compute = CE e; _ } :: rest when raise_free e -> first_check rest
  | Check _ as c :: _ -> Some c
  | _ -> None

let solved_check ~slot (iter : citer) body =
  match (iter, first_check body) with
  | CRange _, Some (Check { c_index; c_compute = CE (CBin (Ne, l, r)); _ }) -> (
    let inner = Iset.add slot (bound_slots body) in
    (* Raise-free, and constant over one entry of the loop. *)
    let rec outer = function
      | CLit _ -> true
      | CSlot i -> not (Iset.mem i inner)
      | CUn (Neg, a) -> outer a
      | CBin ((Add | Sub | Mul), a, b) -> outer a && outer b
      | CUn (Not, _) | CBin _ | CIf _ | CCall _ -> false
    in
    let coef = function
      | CSlot i when i = slot -> Some (CLit 1)
      | CBin (Mul, m, CSlot i) when i = slot && outer m -> Some m
      | CBin (Mul, CSlot i, m) when i = slot && outer m -> Some m
      | _ -> None
    in
    let rec binds = function
      | Derive { d_slot; _ } :: rest -> d_slot :: binds rest
      | _ -> [ slot ]
    in
    let solve x t =
      match coef x with
      | Some m when outer t ->
        Some
          { sv_index = c_index; sv_coef = m; sv_target = t; sv_binds = binds body }
      | _ -> None
    in
    match solve l r with Some _ as s -> s | None -> solve r l)
  | _ -> None

type solution =
  | Test_each
  | Pass_all
  | Pass_none
  | Pass_one

(* [Codegen_c]'s [beast_solve] is the C twin, branch for branch. [last]
   is exact even when [(trip - 1) * step] wraps, since the loop visits
   it. The guards keep each product [coef * x] and the span [hi - lo]
   within [max_int], so no step below wraps, in 63 or in 64 bits. The
   kept value goes to [only] rather than into an allocated answer: the
   staged engine solves once per loop entry and otherwise allocates
   nothing while it sweeps. *)
let solve ~start ~step ~trip ~coef ~target ~only =
  if trip = 0 then Pass_none
  else if trip = max_int then Test_each
  else
    let last = start + ((trip - 1) * step) in
    if
      start = min_int || step = min_int || last = min_int || coef = min_int
      || target = min_int
    then Test_each
    else if coef = 0 then if target = 0 then Pass_all else Pass_none
    else
      let lo = int_min start last and hi = int_max start last in
      if int_max (-lo) hi > max_int / abs coef || (lo < 0 && hi > max_int + lo)
      then Test_each
      else if target mod coef <> 0 then Pass_none
      else
        let x = target / coef in
        if x < lo || x > hi || (x - start) mod step <> 0 then Pass_none
        else begin
          only := x;
          Pass_one
        end

type pair = {
  pr_var : string;
  pr_slot : int;
  pr_range : cexpr * cexpr * cexpr;
  pr_body : step list;
  pr_solved : solved;
}

let solved_pair ~slot (iter : citer) body =
  match (iter, body) with
  | CRange _, [ Loop { l_var; l_slot; l_iter = CRange (a, b, c) as l_iter; l_body } ]
    -> (
    match solved_check ~slot:l_slot l_iter l_body with
    | Some ({ sv_coef = CSlot i; sv_target; _ } as sv) when i = slot ->
      let reads_x e = List.mem slot (cexpr_slots e) in
      if List.exists reads_x [ a; b; c; sv_target ] then None
      else
        Some
          {
            pr_var = l_var;
            pr_slot = l_slot;
            pr_range = (a, b, c);
            pr_body = l_body;
            pr_solved = sv;
          }
    | _ -> None)
  | _ -> None

(* [Codegen_c]'s [beast_pair_window] is the C twin. With every value
   positive and [last * inner_last <= max_int], no product [x * y]
   wraps, so [x * y = target] needs [x] in
   [[ceil (target / inner_last), target / inner_start]]; and the
   product guard also bounds [trip * inner_trip], the most any caller
   charges in bulk. *)
let pair_window ~start ~step ~trip ~inner_start ~inner_step ~inner_trip ~target
    ~lo ~hi =
  lo := 0;
  hi := 0;
  if start < 1 || step < 1 || inner_start < 1 || inner_step < 1 || target < 1
  then false
  else if trip = 0 || inner_trip = 0 then true
  else
    let last = start + ((trip - 1) * step)
    and inner_last = inner_start + ((inner_trip - 1) * inner_step) in
    if last > max_int / inner_last then false
    else begin
      let wlo = int_max start (((target - 1) / inner_last) + 1)
      and whi = int_min last (target / inner_start) in
      if wlo <= whi then begin
        lo := if wlo = start then 0 else ((wlo - start - 1) / step) + 1;
        hi := ((whi - start) / step) + 1
      end;
      true
    end

(* Block [index] of [of_] over a trip sequence of length [len]:
   positions [index*len/of_, (index+1)*len/of_). Adjacent blocks tile
   the sequence exactly and differ in size by at most one. *)
let block_bounds ~index ~of_ len =
  (index * len / of_, (index + 1) * len / of_)

let chunk_outer t ~index ~of_ =
  if of_ < 1 || index < 0 || index >= of_ then
    invalid_arg "Plan.chunk_outer: need 0 <= index < of_";
  if of_ = 1 then t
  else
    let chunk_values vs =
      let lo, hi = block_bounds ~index ~of_ (Array.length vs) in
      Array.sub vs lo (hi - lo)
    in
    let chunk_citer = function
      | CValues vs -> CValues (chunk_values vs)
      | CDyn (reads, f) -> CDyn (reads, fun slots -> chunk_values (f slots))
      | CRange (a, b, c) -> (
        match (static_cexpr a, static_cexpr b, static_cexpr c) with
        | Some a', Some b', Some c' when c' <> 0 ->
          let trip = trip_count ~start:a' ~stop:b' ~step:c' in
          let lo, hi = block_bounds ~index ~of_ trip in
          CRange (CLit (a' + (c' * lo)), CLit (a' + (c' * hi)), CLit c')
        | _ ->
          (* Bounds read depth-0 derived slots: compute the block
             symbolically. The expressions are pure and the outer loop
             header is evaluated once per sweep, so the duplication of
             [a]/[b]/[c] below costs nothing measurable. *)
          let lit k = CLit k in
          let ceil_div x y = CCall (Expr.Ceil_div, [ x; y ]) in
          let clamp0 x = CCall (Expr.Max, [ lit 0; x ]) in
          let trip =
            CIf
              ( CBin (Expr.Eq, c, lit 0),
                lit 0,
                CIf
                  ( CBin (Expr.Gt, c, lit 0),
                    clamp0 (ceil_div (CBin (Expr.Sub, b, a)) c),
                    clamp0
                      (ceil_div (CBin (Expr.Sub, a, b)) (CUn (Expr.Neg, c))) ) )
          in
          let pos k = CBin (Expr.Div, CBin (Expr.Mul, lit k, trip), lit of_) in
          let at p = CBin (Expr.Add, a, CBin (Expr.Mul, c, p)) in
          CRange (at (pos index), at (pos (index + 1)), c))
    in
    let rec chunk_steps = function
      | [] -> if index = 0 then [] else raise Exit
      | Loop l :: rest -> Loop { l with l_iter = chunk_citer l.l_iter } :: rest
      | Static_prune p :: rest ->
        (* The compensation entries for the outer loop's dead values must
           be counted exactly once across the chunk set, so they block-
           decompose alongside the live values. *)
        let lo, hi = block_bounds ~index ~of_ (Array.length p.sp_dead) in
        Static_prune { p with sp_dead = Array.sub p.sp_dead lo (hi - lo) }
        :: chunk_steps rest
      | step :: rest -> step :: chunk_steps rest
    in
    match chunk_steps t.steps with
    | steps -> { t with steps }
    | exception Exit -> { t with steps = [] }

let depth0_constraints t =
  let mask = Array.make (Array.length t.constraint_info) false in
  let rec go = function
    | [] | Loop _ :: _ -> ()
    | Check { c_index; _ } :: rest ->
      mask.(c_index) <- true;
      go rest
    | (Derive _ | Yield | Static_prune _) :: rest -> go rest
  in
  go t.steps;
  mask

(* ------------------------------------------------------------------ *)
(* Optimization pipeline                                               *)
(* ------------------------------------------------------------------ *)

(* Plan cannot depend on the passes (Propagate sits above it in the
   dependency order), so the pipeline takes them as plain functions. *)
let optimize ?(passes = []) t =
  List.fold_left (fun plan pass -> pass plan) t passes

(* Aggregate a [Static_prune] dead list into per-constraint totals, for
   engines that only need the statistics deltas (one pass at compile
   time instead of one per execution). *)
let static_prune_counts sp_dead =
  let tbl = Hashtbl.create 4 in
  Array.iter
    (fun (_, c) ->
      Hashtbl.replace tbl c (1 + Option.value ~default:0 (Hashtbl.find_opt tbl c)))
    sp_dead;
  let pairs = Hashtbl.fold (fun c k acc -> (c, k) :: acc) tbl [] in
  Array.of_list (List.sort compare pairs)

let static_pruned t =
  let rec go acc steps =
    List.fold_left
      (fun acc step ->
        match step with
        | Static_prune { sp_dead; _ } -> acc + Array.length sp_dead
        | Loop { l_body; _ } -> go acc l_body
        | Derive _ | Check _ | Yield -> acc)
      acc steps
  in
  go 0 t.steps

let slot_of t name = Hashtbl.find t.slot_index name

let lookup_of_slots t slots name =
  match Hashtbl.find_opt t.slot_index name with
  | Some slot -> Value.Int slots.(slot)
  | None -> (
    match List.assoc_opt name t.settings with
    | Some v -> v
    | None -> raise Not_found)

(* ------------------------------------------------------------------ *)
(* Pretty-printing                                                     *)
(* ------------------------------------------------------------------ *)

let rec pp_cexpr ppf = function
  | CLit k -> Format.pp_print_int ppf k
  | CSlot i -> Format.fprintf ppf "s%d" i
  | CUn (Neg, a) -> Format.fprintf ppf "(-%a)" pp_cexpr a
  | CUn (Not, a) -> Format.fprintf ppf "(!%a)" pp_cexpr a
  | CBin (op, a, b) ->
    Format.fprintf ppf "(%a %s %a)" pp_cexpr a (Expr.binop_symbol op) pp_cexpr b
  | CIf (c, t, f) ->
    Format.fprintf ppf "(%a ? %a : %a)" pp_cexpr c pp_cexpr t pp_cexpr f
  | CCall (b, args) ->
    Format.fprintf ppf "%s(%a)" (Expr.builtin_name b)
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         pp_cexpr)
      args

let pp_compute ppf = function
  | CE e -> pp_cexpr ppf e
  | CF _ -> Format.pp_print_string ppf "<fun>"

let pp_citer ppf = function
  | CRange (a, b, c) ->
    Format.fprintf ppf "range(%a, %a, %a)" pp_cexpr a pp_cexpr b pp_cexpr c
  | CValues vs ->
    Format.fprintf ppf "values(%s)"
      (String.concat ", " (Array.to_list (Array.map string_of_int vs)))
  | CDyn _ -> Format.pp_print_string ppf "<dynamic>"

let pp ppf t =
  let rec pp_steps ?solved indent steps =
    List.iter
      (fun step ->
        match step with
        | Derive { d_name; d_slot; d_compute } ->
          Format.fprintf ppf "%s%s (s%d) = %a@\n" indent d_name d_slot pp_compute
            d_compute
        | Check { c_name; c_class; c_index; c_compute } ->
          Format.fprintf ppf "%sprune if %s [%s%s]: %a@\n" indent c_name
            (Space.constraint_class_name c_class)
            (if solved = Some c_index then ", solved" else "")
            pp_compute c_compute
        | Loop { l_var; l_slot; l_iter; l_body } ->
          Format.fprintf ppf "%sfor %s (s%d) in %a%s:@\n" indent l_var l_slot
            pp_citer l_iter
            (match solved_pair ~slot:l_slot l_iter l_body with
            | Some pr ->
              Printf.sprintf " [window %s]"
                (fst t.constraint_info.(pr.pr_solved.sv_index))
            | None -> "");
          pp_steps
            ?solved:
              (Option.map
                 (fun sv -> sv.sv_index)
                 (solved_check ~slot:l_slot l_iter l_body))
            (indent ^ "  ") l_body
        | Static_prune { sp_var; sp_slot; sp_dead } ->
          let by_constraint = Hashtbl.create 4 in
          Array.iter
            (fun (_, c) ->
              Hashtbl.replace by_constraint c
                (1 + Option.value ~default:0 (Hashtbl.find_opt by_constraint c)))
            sp_dead;
          let parts =
            List.filter_map
              (fun c ->
                Option.map
                  (fun k -> Printf.sprintf "%s:%d" (fst t.constraint_info.(c)) k)
                  (Hashtbl.find_opt by_constraint c))
              (List.init (Array.length t.constraint_info) Fun.id)
          in
          Format.fprintf ppf "%sstatic prune %s (s%d): %d dead [%s]@\n" indent
            sp_var sp_slot (Array.length sp_dead)
            (String.concat ", " parts)
        | Yield -> Format.fprintf ppf "%syield@\n" indent)
      steps
  in
  Format.fprintf ppf "plan %s (%d loops, %d constraints)@\n" t.space_name
    (List.length t.iter_order)
    (Array.length t.constraint_info);
  pp_steps "" t.steps
