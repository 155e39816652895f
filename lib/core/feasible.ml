(* Compact feasible sets (ROADMAP item 2, second half).

   A built plan defines a set of feasible points — the assignments that
   reach [Yield]. Enumerating them is what engines do; this module
   instead REPRESENTS the set, as a layered decision diagram over the
   plan's loop order: one layer per iterator, each node mapping the
   feasible values at that layer (given the outer context the node
   stands for) to a child node one layer down. Nodes are hash-consed,
   so identical sub-spaces share structure, and each node's value map
   is compressed into sorted arithmetic-progression runs — a GEMM-like
   space whose inner feasibility depends only on a couple of outer
   parameters collapses to a DAG a few hundred nodes wide no matter
   how many points it holds.

   Construction is a memoized depth-first walk of the nest, compiled
   once per plan into the staged engine's closures: at each loop the
   walk keys on the projection of the slot state onto the slots the
   subtree actually reads (its free slots), so a subtree is evaluated
   once per DISTINCT outer context rather than once per outer
   assignment (a loop whose context can never repeat skips the memo),
   and a loop whose first check is [m * x != t] visits only the value
   that solves it. Opaque computes ([CF]) and dynamic
   iterators ([CDyn]) are plain int functions, run as they are, but
   their reads are unknown, so they widen the memo key to the whole
   slot state; correct, merely less shared.

   The payoff: [count] is exact without enumeration (the CI criterion
   pins a billion-point space), [nth]/[sample] index the set directly,
   [union]/[inter] combine sets, and the serialized form is
   deterministic, so separate processes can compare sets by digest. *)

type node =
  | Empty
  | Accept
  | Node of { nid : int; runs : run array; total : int }

and run = {
  r_lo : int;  (** first value of the run *)
  r_step : int;  (** stride between consecutive values (1 for singletons) *)
  r_len : int;  (** number of values *)
  r_child : node;  (** sub-diagram shared by every value of the run *)
}

type t = {
  f_space : string;
  f_iters : string array;  (** loop order, outermost first *)
  f_root : node;
}

let node_count = function
  | Empty -> 0
  | Accept -> 1
  | Node { total; _ } -> total

let count t = node_count t.f_root
let space_name t = t.f_space
let iterators t = Array.to_list t.f_iters

(* ------------------------------------------------------------------ *)
(* Node arena: hash-consing + run compression                          *)
(* ------------------------------------------------------------------ *)

let nid_of = function
  | Empty -> -1
  | Accept -> -2
  | Node { nid; _ } -> nid

(* Int-array keys hashed over every element: [Hashtbl.hash] reads only
   a bounded prefix, so long keys sharing one would all collide. *)
let mix h x = (h + x) * 0x1f3d5b79a3c6e5

module Ints = Hashtbl.Make (struct
  type t = int array

  let equal (a : t) (b : t) =
    let n = Array.length a in
    let rec from i = i = n || (a.(i) = b.(i) && from (i + 1)) in
    n = Array.length b && from 0

  let hash (a : t) =
    let h = ref 0 in
    for i = 0 to Array.length a - 1 do
      h := mix !h a.(i)
    done;
    !h lxor (!h lsr 29)
end)

(* A node's runs as the hash-consing key. Children are already consed
   in the same arena, so physical identity is structural equality. *)
module Runs = Hashtbl.Make (struct
  type t = run array

  let equal (a : t) (b : t) =
    let n = Array.length a in
    let same x y =
      x.r_lo = y.r_lo && x.r_step = y.r_step && x.r_len = y.r_len
      && x.r_child == y.r_child
    in
    let rec from i = i = n || (same a.(i) b.(i) && from (i + 1)) in
    n = Array.length b && from 0

  let hash (a : t) =
    let h = ref 0 in
    for i = 0 to Array.length a - 1 do
      let r = a.(i) in
      h := mix (mix (mix (mix !h r.r_lo) r.r_step) r.r_len) (nid_of r.r_child)
    done;
    !h lxor (!h lsr 29)
end)

type arena = { mutable next_nid : int; cons : node Runs.t }

let arena () = { next_nid = 0; cons = Runs.create 256 }

exception Failed of string

let fail fmt = Printf.ksprintf (fun msg -> raise (Failed msg)) fmt

(* Greedy left-to-right run compression of a sorted, duplicate-free
   (value, child) list, given as its head [(v, c)] and tail. Greedy is
   canonical here: a run extends exactly while the child stays the
   same node and the stride stays constant, so equal maps always
   compress identically — the property the deterministic serialization
   and the hash-consing key rely on. *)
let compress v c tl =
  let close lo step len child =
    let r_step = if len = 1 then 1 else step in
    { r_lo = lo; r_step; r_len = len; r_child = child }
  in
  let rec go acc lo last step len child = function
    | (v, c) :: tl when c == child && (len = 1 || v - last = step) ->
      go acc lo v (v - last) (len + 1) child tl
    | [] -> Array.of_list (List.rev (close lo step len child :: acc))
    | (v, c) :: tl -> go (close lo step len child :: acc) v v 1 1 c tl
  in
  go [] v v 1 1 c tl

(* Build (or reuse) the node for a sorted (value, child) map. Values
   must be strictly increasing; Empty children must already have been
   filtered out. A total past [max_int] is refused, never wrapped. *)
let cons_node a = function
  | [] -> Empty
  | (v, c) :: tl -> (
    let runs = compress v c tl in
    match Runs.find_opt a.cons runs with
    | Some n -> n
    | None ->
      let weigh acc r =
        let per = node_count r.r_child in
        if per > 0 && r.r_len > (max_int - acc) / per then
          fail "the feasible set holds more than max_int (%d) points" max_int;
        acc + (r.r_len * per)
      in
      let total = Array.fold_left weigh 0 runs in
      let n = Node { nid = a.next_nid; runs; total } in
      a.next_nid <- a.next_nid + 1;
      Runs.add a.cons runs n;
      n)

(* ------------------------------------------------------------------ *)
(* Free-slot analysis (the memo projection)                            *)
(* ------------------------------------------------------------------ *)

(* Slots a program fragment reads from its surrounding context. [All]
   is the poison for opaque computes/iterators, whose reads cannot be
   inspected. *)
type slotset = All | Only of int list (* sorted, distinct *)

let sunion a b =
  match (a, b) with
  | All, _ | _, All -> All
  | Only xs, Only ys ->
    let rec merge xs ys =
      match (xs, ys) with
      | [], r | r, [] -> r
      | x :: xt, y :: yt ->
        if x < y then x :: merge xt ys
        else if x > y then y :: merge xs yt
        else x :: merge xt yt
    in
    Only (merge xs ys)

let sremove s = function
  | All -> All
  | Only xs -> Only (List.filter (fun x -> x <> s) xs)

let compute_reads = function
  | Plan.CE e -> Only (Plan.cexpr_slots e)
  | Plan.CF _ -> All

let citer_reads = function
  | Plan.CRange (a, b, c) ->
    sunion
      (Only (Plan.cexpr_slots a))
      (sunion (Only (Plan.cexpr_slots b)) (Only (Plan.cexpr_slots c)))
  | Plan.CValues _ -> Only []
  | Plan.CDyn _ -> All

(* ------------------------------------------------------------------ *)
(* Annotated program                                                   *)
(* ------------------------------------------------------------------ *)

(* The canonical nest re-expressed for the walk and compiled once per
   plan with the staged engine's compiler: [Static_prune] steps vanish
   (they are statistics, not feasibility), and each loop carries a memo
   id plus the free slots of its subtree (every slot for [All]). A loop
   is memoized only where that key can repeat. It cannot when it holds
   the slot of every enclosing loop (each walk sits under a distinct
   path of outer values), nor, for a loop only its parent walks, when
   it holds the parent's whole exact key and the parent's own slot (the
   parent is walked once per context, each value once).

   With [entry], the counter's program ({!sub_nests}): checks vanish,
   each reporting its index and the free slots and program after it;
   unread derives vanish; dead values rejoin their loop (the counter
   counts the unpropagated nest); a loop whose slot its body does not
   read multiplies its trip out. Only a loop that enumerates above
   another is memoized: any other walk costs about one key hash. *)
type fn = int array -> int

type aprog =
  | ADone  (** Yield: the assignment is feasible *)
  | ANone  (** no Yield below (an emptied chunk): nothing feasible *)
  | ADerive of int * fn * aprog
  | ACheck of (int array -> bool) * aprog  (** [true] prunes *)
  | ALoop of {
      var : string;
      slot : int;
      iter : aiter;
      key : int array;  (** free slots of the whole loop step *)
      enumerates : bool;  (** false: the counter multiplies the trip out *)
      mutable entered : bool;  (** a firing's count starts here *)
      mutable memo : bool;  (** false when [key] can never repeat *)
      probe : int array;
          (** the memo key: a loop id, then the [key] slots' values,
              refilled per lookup so a memo hit allocates nothing *)
      body : aprog;
    }

and aiter =
  | ARange of fn * fn * fn * (fn * fn) option
      (** start, stop, step, and the coefficient and target of the first
          check when [Plan.solved_check] recognises it *)
  | AValues of (int array -> int array)  (** [CValues] and [CDyn] *)

(* A range too long to walk or materialise is refused up front. *)
let check_trip var n max_states =
  if n > max_states then
    fail "iterator %s: range of %d values exceeds the %d-state budget" var n
      max_states

let default_max_states = 2_000_000

(* The values of iterator [var] when its bounds are all slot-free;
   [Failed] for a range past the state budget. *)
let static var = function
  | Plan.CValues vs -> Some vs
  | Plan.CRange (sa, sb, sc) -> (
    let open Plan in
    match (static_cexpr sa, static_cexpr sb, static_cexpr sc) with
    | Some start, Some stop, Some step when step <> 0 ->
      let n = trip_count ~start ~stop ~step in
      check_trip var n default_max_states;
      Some (Array.init n (fun i -> start + (i * step)))
    | _ -> None)
  | Plan.CDyn _ -> None

let annotate ?entry ~n_slots (steps : Plan.step list) =
  let uid = ref 0 in
  let counting = entry <> None in
  let compute = function Plan.CE e -> Plan.compile_cexpr e | Plan.CF f -> f
  and cond = function
    | Plan.CE e -> Plan.compile_cond e
    | Plan.CF f -> fun s -> f s <> 0
  in
  let reads s = function All -> true | Only r -> List.mem s r in
  let rec go enclosing steps =
    match (steps : Plan.step list) with
    | [] -> (ANone, Only [])
    | Plan.Yield :: _ -> (ADone, Only [])
    | Plan.Static_prune { sp_dead; _ } :: Plan.Loop l :: rest when counting ->
      (* The counter counts the unpropagated nest: a propagated loop's
         dead values rejoin its (static) domain. *)
      let dead = Array.map fst sp_dead in
      let l_iter =
        match static l.l_var l.l_iter with
        | Some live -> Plan.CValues (Array.append live dead)
        | None | (exception Failed _) ->
          Plan.CDyn (fun _ -> fail "iterator %s: domain unknown" l.l_var)
      in
      go enclosing (Plan.Loop { l with l_iter } :: rest)
    | Plan.Static_prune _ :: rest -> go enclosing rest
    | Plan.Derive { d_slot; d_compute; _ } :: rest ->
      let a, fs = go enclosing rest in
      if counting && not (reads d_slot fs) then (a, fs)
      else
        (ADerive (d_slot, compute d_compute, a),
         sunion (compute_reads d_compute) (sremove d_slot fs))
    | Plan.Check { c_index; c_compute; _ } :: rest -> (
      let a, fs = go enclosing rest in
      match entry with
      | Some report ->
        let rec enter = function
          | ADerive (_, _, a) -> enter a
          | ALoop l -> l.entered <- true
          | ACheck _ | ADone | ANone -> ()
        in
        enter a;
        report c_index fs a;
        (a, fs)
      | None -> (ACheck (cond c_compute, a), sunion (compute_reads c_compute) fs))
    | Plan.Loop { l_var; l_slot; l_iter; l_body } :: rest ->
      (* Canonical nests put nothing after a loop; points are defined by
         the path to Yield, so trailing steps would be ambiguous. *)
      (match go enclosing rest with
      | ANone, _ -> ()
      | _ -> fail "unsupported plan shape: steps after a loop");
      let body, bfs = go (l_slot :: enclosing) l_body in
      let key = sunion (citer_reads l_iter) (sremove l_slot bfs) in
      (* An opaque key also holds stale values of inner slots, so only an
         exact one is fixed by a child's context. *)
      (match key with
      | All -> ()
      | Only read ->
        let rec mark_child = function
          | ADerive (_, _, a) | ACheck (_, a) -> mark_child a
          | ALoop c ->
            let within s = Array.mem s c.key in
            if (not c.entered) && within l_slot && List.for_all within read
            then c.memo <- false
          | ADone | ANone -> ()
        in
        mark_child body);
      let iter =
        match l_iter with
        | Plan.CRange (a, b, c) ->
          let f = Plan.compile_cexpr in
          let solve (sv : Plan.solved) = (f sv.sv_coef, f sv.sv_target) in
          let solved =
            if counting then None
            else Plan.solved_check ~slot:l_slot l_iter l_body
          in
          ARange (f a, f b, f c, Option.map solve solved)
        | Plan.CValues vs -> AValues (fun _ -> vs)
        | Plan.CDyn f -> AValues f
      in
      incr uid;
      let read = match key with All -> List.init n_slots Fun.id | Only r -> r in
      let key' = Array.of_list read in
      let probe = Array.make (Array.length key' + 1) !uid in
      let enumerates = (not counting) || reads l_slot bfs in
      let rec nested = function
        | ADerive (_, _, a) | ACheck (_, a) -> nested a
        | ALoop c -> c.enumerates || nested c.body
        | ADone | ANone -> false
      in
      let memo =
        enumerates
        && ((not counting) || nested body)
        && not (List.for_all (fun s -> Array.mem s key') enclosing)
      in
      ( ALoop
          { var = l_var; slot = l_slot; iter; key = key'; enumerates;
            entered = false; memo; probe; body },
        key )
  in
  fst (go [] steps)

(* ------------------------------------------------------------------ *)
(* Building from a plan (exact)                                        *)
(* ------------------------------------------------------------------ *)

(* A range visits its values in trip order, already sorted (reversed
   when the step is negative) and distinct, and keeps only the
   non-Empty children. A solved loop visits only the values that can
   pass its first check: a skipped value fails that check right after
   derives that cannot raise, so no deeper loop, state or error is
   skipped. Value lists are sorted and checked for repeats. *)
let build ?(max_states = default_max_states) (plan : Plan.t) :
    (t, string) result =
  try
    let slots = Array.make (max 1 plan.Plan.n_slots) 0 in
    let prog = annotate ~n_slots:(Array.length slots) plan.Plan.steps in
    let a = arena () in
    let memo = Ints.create 1024 in
    let states = ref 0 in
    let only = ref 0 in
    (* Every walk of a loop is one state, memoized or not. *)
    let count_state var key =
      incr states;
      if !states > max_states then
        let name s =
          if s < Array.length plan.Plan.slot_names then plan.Plan.slot_names.(s)
          else string_of_int s
        in
        let context = Array.to_list (Array.map name key) in
        fail
          "state explosion at iterator %s (context: %s): more than %d \
           distinct loop contexts (the plan's constraints could not be \
           factored; raise ?max_states or count by enumeration)"
          var
          (if context = [] then "none" else String.concat ", " context)
          max_states
    in
    let rec exec = function
      | ADone -> Accept
      | ANone -> Empty
      | ADerive (slot, f, rest) ->
        slots.(slot) <- f slots;
        exec rest
      | ACheck (fires, rest) -> if fires slots then Empty else exec rest
      | ALoop l when not l.memo ->
        count_state l.var l.key;
        cons_node a (walk l.var l.slot l.iter l.body)
      | ALoop l -> (
        let probe = l.probe in
        for i = 0 to Array.length l.key - 1 do
          probe.(i + 1) <- slots.(l.key.(i))
        done;
        match Ints.find_opt memo probe with
        | Some n -> n
        | None ->
          let k = Array.copy probe in
          count_state l.var l.key;
          let n = cons_node a (walk l.var l.slot l.iter l.body) in
          Ints.add memo k n;
          n)
    and walk var slot iter body =
      let visit v =
        slots.(slot) <- v;
        exec body
      in
      let keep acc v = match visit v with Empty -> acc | c -> (v, c) :: acc in
      match iter with
      | AValues f ->
        let pairs = Array.map (fun v -> (v, visit v)) (f slots) in
        Array.stable_sort (fun (x, _) (y, _) -> compare x y) pairs;
        for i = 1 to Array.length pairs - 1 do
          if fst pairs.(i - 1) = fst pairs.(i) then
            fail "iterator visits value %d twice" (fst pairs.(i))
        done;
        List.filter (fun (_, c) -> c != Empty) (Array.to_list pairs)
      | ARange (start, stop, step, solved) -> (
        let start = start slots and stop = stop slots and step = step slots in
        if step = 0 then fail "Feasible: zero range step";
        let n = Plan.trip_count ~start ~stop ~step in
        check_trip var n max_states;
        let solution =
          match solved with
          | None -> Plan.Test_each
          | Some (coef, target) ->
            Plan.solve ~start ~step ~trip:n ~coef:(coef slots)
              ~target:(target slots) ~only
        in
        match solution with
        | Pass_none -> []
        | Pass_one -> keep [] !only
        | Pass_all | Test_each ->
          let acc = ref [] and v = ref start in
          for _ = 1 to n do
            acc := keep !acc !v;
            v := !v + step
          done;
          if step > 0 then List.rev !acc else !acc)
    in
    Ok
      {
        f_space = plan.Plan.space_name;
        f_iters = Array.of_list plan.Plan.iter_order;
        f_root = exec prog;
      }
  with
  | Failed msg | Expr.Eval_error msg -> Error msg
  | Division_by_zero -> Error "division by zero while evaluating the plan"

(* ------------------------------------------------------------------ *)
(* Sub-nest counts (what a firing prunes)                              *)
(* ------------------------------------------------------------------ *)

type sub_nest =
  | Static of int
  | Dyn of (int array -> int)
  | Inexact

(* Every check's entry is a suffix of one annotated program, so checks
   at one depth share its loops and memo. Counts run on one scratch
   slot array; a step of 0 is an empty range, as in Plan.trip_count. *)
let sub_nests ?(max_states = default_max_states) (plan : Plan.t) =
  let n_c = Array.length plan.Plan.constraint_info in
  let scratch = Array.make (max 1 plan.Plan.n_slots) 0 in
  let entries = ref [] in
  let (_ : aprog) =
    annotate
      ~entry:(fun c fs a -> entries := (c, fs, a) :: !entries)
      ~n_slots:(Array.length scratch) plan.Plan.steps
  in
  let memo = Ints.create 64 in
  (* By loop id ([probe.(0)], at most one per slot); -1 until counted. *)
  let consts = Array.make (Array.length scratch + 1) (-1) in
  let states = ref 0 in
  let rec count = function
    | ADone -> 1
    | ANone -> 0
    | ADerive (slot, f, rest) ->
      scratch.(slot) <- f scratch;
      count rest
    | ACheck (_, rest) -> count rest
    | ALoop l when Array.length l.key = 0 ->
      (* A sub-nest that reads nothing from outside is counted once. *)
      let id = l.probe.(0) in
      if consts.(id) < 0 then
        consts.(id) <- walk l.var l.slot l.iter l.enumerates l.body;
      consts.(id)
    | ALoop l when not l.memo -> walk l.var l.slot l.iter l.enumerates l.body
    | ALoop l -> (
      let probe = l.probe in
      for i = 0 to Array.length l.key - 1 do
        probe.(i + 1) <- scratch.(l.key.(i))
      done;
      match Ints.find_opt memo probe with
      | Some k -> k
      | None ->
        let k = Array.copy probe in
        incr states;
        if !states > max_states then
          fail "more than %d sub-nest contexts" max_states;
        let n = walk l.var l.slot l.iter l.enumerates l.body in
        Ints.add memo k n;
        n)
  and walk var slot iter enumerates body =
    match iter with
    | ARange (start, stop, step, _) ->
      let start = start scratch and step = step scratch in
      let n = Plan.trip_count ~start ~stop:(stop scratch) ~step in
      if not enumerates then n * count body
      else begin
        check_trip var n max_states;
        let acc = ref 0 in
        for i = 0 to n - 1 do
          scratch.(slot) <- start + (i * step);
          acc := !acc + count body
        done;
        !acc
      end
    | AValues f ->
      let vs = f scratch in
      if not enumerates then Array.length vs * count body
      else
        Array.fold_left
          (fun acc v ->
            scratch.(slot) <- v;
            acc + count body)
          0 vs
  in
  let out = Array.make n_c Inexact in
  List.iter
    (fun (c, fs, a) ->
      out.(c) <-
        (match fs with
        | All -> Inexact
        | Only [] -> ( match count a with k -> Static k | exception _ -> Inexact)
        | Only read ->
          let read = Array.of_list read in
          Dyn
            (fun slots ->
              for i = 0 to Array.length read - 1 do
                scratch.(read.(i)) <- slots.(read.(i))
              done;
              count a)))
    !entries;
  out

(* ------------------------------------------------------------------ *)
(* Upper bound from propagation alone                                  *)
(* ------------------------------------------------------------------ *)

(* The product of the (propagated) iterator domains: every check is
   assumed to pass, so this is exact precisely when propagation folded
   every constraint into the iterators, and an upper bound otherwise.
   Needs every iterator static — symbolic bounds have no fixed domain. *)
let of_propagation (plan : Plan.t) : (t, string) result =
  let rec loops acc = function
    | [] -> List.rev acc
    | Plan.Loop { l_var; l_iter; l_body; _ } :: _ ->
      loops ((l_var, l_iter) :: acc) l_body
    | _ :: rest -> loops acc rest
  in
  let a = arena () in
  let rec chain = function
    | [] -> Ok Accept
    | (var, iter) :: deeper -> (
      match static var iter with
      | None -> Error (Printf.sprintf "iterator %s is not static" var)
      | Some vs -> (
        match chain deeper with
        | Error _ as e -> e
        | Ok child ->
          let pairs =
            List.sort_uniq compare (Array.to_list vs)
            |> List.map (fun v -> (v, child))
          in
          Ok (cons_node a pairs)))
  in
  match chain (loops [] plan.Plan.steps) with
  | Error msg | (exception Failed msg) -> Error msg
  | Ok root ->
    Ok
      {
        f_space = plan.Plan.space_name;
        f_iters = Array.of_list plan.Plan.iter_order;
        f_root = root;
      }

(* ------------------------------------------------------------------ *)
(* Indexing: nth and uniform sampling                                  *)
(* ------------------------------------------------------------------ *)

(* Points are totally ordered lexicographically by (sorted) value at
   each layer, outermost first — a canonical order independent of the
   plan's trip order, so every consumer of the same set agrees on what
   "point [i]" means. Cost: one run scan per layer. *)
let nth_into t i point =
  if i < 0 || i >= count t then
    invalid_arg
      (Printf.sprintf "Feasible.nth: index %d out of bounds [0, %d)" i
         (count t));
  if Array.length point < Array.length t.f_iters then
    invalid_arg "Feasible.nth_into: one slot per layer expected";
  let rec go layer node i =
    match node with
    | Empty -> assert false
    | Accept -> ()
    | Node { runs; _ } ->
      let rec scan ri i =
        let r = runs.(ri) in
        let per = node_count r.r_child in
        let here = r.r_len * per in
        if i < here then begin
          point.(layer) <- r.r_lo + (i / per * r.r_step);
          go (layer + 1) r.r_child (i mod per)
        end
        else scan (ri + 1) (i - here)
      in
      scan 0 i
  in
  go 0 t.f_root i

let nth t i =
  let point = Array.make (Array.length t.f_iters) 0 in
  nth_into t i point;
  List.combine (Array.to_list t.f_iters) (Array.to_list point)

let default_rng = lazy (Random.State.make [| 0xbea57 |])

let sample_into ?rng t point =
  let n = count t in
  n > 0
  &&
  let rng =
    match rng with
    | Some r -> r
    | None -> Lazy.force default_rng
  in
  let i =
    if n <= 0x3FFFFFFF then Random.State.int rng n
    else Int64.to_int (Random.State.int64 rng (Int64.of_int n))
  in
  nth_into t i point;
  true

let sample ?rng t =
  let point = Array.make (Array.length t.f_iters) 0 in
  if sample_into ?rng t point then
    Some (List.combine (Array.to_list t.f_iters) (Array.to_list point))
  else None

(* A difference of two stored values, or a run's stride, can pass
   max_int and wrap; its true value lies in [0, 2^63), so reading the
   wrapped bits as unsigned recovers it exactly. *)
let unsigned x = Int64.logand (Int64.of_int x) Int64.max_int
let dist a b = unsigned (if a >= b then a - b else b - a)

(* At each layer, the stored value nearest the layer's target, the
   smaller on a tie. Runs are sorted, disjoint blocks: each answers in
   O(1), and an earlier run keeps a tie. *)
let nearest t targets =
  if count t = 0 then invalid_arg "Feasible.nearest: empty set";
  if Array.length targets <> Array.length t.f_iters then
    invalid_arg "Feasible.nearest: one target per layer expected";
  let in_run target r =
    let hi = r.r_lo + ((r.r_len - 1) * r.r_step) in
    if target <= r.r_lo then r.r_lo
    else if target >= hi then hi
    else
      let k = Int64.div (unsigned (target - r.r_lo)) (unsigned r.r_step) in
      let below = r.r_lo + (Int64.to_int k * r.r_step) in
      let above = below + r.r_step in
      if dist target below <= dist above target then below else above
  in
  let rec go layer node acc =
    match node with
    | Empty -> assert false
    | Accept -> List.rev acc
    | Node { runs; _ } ->
      let target = targets.(layer) in
      let pick (r, v) r' =
        let v' = in_run target r' in
        if dist v' target < dist v target then (r', v') else (r, v)
      in
      let r, v = Array.fold_left pick (runs.(0), in_run target runs.(0)) runs in
      go (layer + 1) r.r_child ((t.f_iters.(layer), v) :: acc)
  in
  go 0 t.f_root []

(* ------------------------------------------------------------------ *)
(* Set algebra                                                         *)
(* ------------------------------------------------------------------ *)

(* Per-node value maps are re-expanded for merging; runs compress huge
   DOMAINS only when a single layer really holds that many distinct
   values, so cap the expansion rather than attempt progression
   intersection algebra. *)
let expand_cap = 1 lsl 21

exception Run_too_wide of int

let expand_node runs =
  let total = Array.fold_left (fun acc r -> acc + r.r_len) 0 runs in
  if total > expand_cap then raise (Run_too_wide total);
  let out = ref [] in
  for ri = Array.length runs - 1 downto 0 do
    let r = runs.(ri) in
    for k = r.r_len - 1 downto 0 do
      out := (r.r_lo + (k * r.r_step), r.r_child) :: !out
    done
  done;
  !out

type set_op = Union | Inter

let combine op ta tb : (t, string) result =
  if ta.f_iters <> tb.f_iters then
    Error
      (Printf.sprintf "layer mismatch: [%s] vs [%s]"
         (String.concat " " (Array.to_list ta.f_iters))
         (String.concat " " (Array.to_list tb.f_iters)))
  else
    try
      let a = arena () in
      (* Rebuild a one-sided subtree inside the result arena (union
         branches present in only one operand). One memo per side: the
         two operands' node ids come from independent arenas and may
         collide. *)
      let importer () =
        let imported = Hashtbl.create 64 in
        let rec import node =
          match node with
          | Empty -> Empty
          | Accept -> Accept
          | Node { nid; runs; _ } -> (
            match Hashtbl.find_opt imported nid with
            | Some n -> n
            | None ->
              let pairs =
                List.map (fun (v, c) -> (v, import c)) (expand_node runs)
              in
              let n = cons_node a pairs in
              Hashtbl.add imported nid n;
              n)
        in
        import
      in
      let import_a = importer () and import_b = importer () in
      let memo = Hashtbl.create 256 in
      let rec go na nb =
        match (na, nb, op) with
        | Empty, x, Union -> import_b x
        | x, Empty, Union -> import_a x
        | Empty, _, Inter | _, Empty, Inter -> Empty
        | Accept, Accept, _ -> Accept
        | (Accept, Node _, _ | Node _, Accept, _) ->
          (* Equal layer lists put Accept at equal depth everywhere. *)
          assert false
        | Node ra, Node rb, _ -> (
          let k = (ra.nid, rb.nid) in
          match Hashtbl.find_opt memo k with
          | Some n -> n
          | None ->
            let pa = expand_node ra.runs and pb = expand_node rb.runs in
            let rec merge pa pb =
              match (pa, pb) with
              | [], rest -> begin
                match op with
                | Inter -> []
                | Union -> List.map (fun (v, c) -> (v, import_b c)) rest
              end
              | rest, [] -> begin
                match op with
                | Inter -> []
                | Union -> List.map (fun (v, c) -> (v, import_a c)) rest
              end
              | (va, ca) :: ta, (vb, cb) :: tb ->
                if va < vb then begin
                  match op with
                  | Inter -> merge ta pb
                  | Union -> (va, import_a ca) :: merge ta pb
                end
                else if va > vb then begin
                  match op with
                  | Inter -> merge pa tb
                  | Union -> (vb, import_b cb) :: merge pa tb
                end
                else (va, go ca cb) :: merge ta tb
            in
            let pairs =
              List.filter (fun (_, c) -> c <> Empty) (merge pa pb)
            in
            let n = cons_node a pairs in
            Hashtbl.add memo k n;
            n)
      in
      Ok
        {
          f_space =
            (if ta.f_space = tb.f_space then ta.f_space
             else ta.f_space ^ "+" ^ tb.f_space);
          f_iters = ta.f_iters;
          f_root = go ta.f_root tb.f_root;
        }
    with
    | Failed msg -> Error msg
    | Run_too_wide n ->
      Error
        (Printf.sprintf
           "a layer holds %d distinct values (cap %d): too wide to merge"
           n expand_cap)

let union = combine Union
let inter = combine Inter

(* ------------------------------------------------------------------ *)
(* Deterministic serialization                                         *)
(* ------------------------------------------------------------------ *)

(* Children-first depth-first numbering from the root, runs in sorted
   value order: structure-equal diagrams print identically no matter
   what order construction consed their nodes in. *)
let to_string t =
  let ids = Hashtbl.create 64 in
  let order = ref [] in
  let next = ref 0 in
  let rec visit node =
    match node with
    | Empty | Accept -> ()
    | Node { nid; runs; _ } ->
      if not (Hashtbl.mem ids nid) then begin
        (* Reserve depth-first: children appear before their parent. *)
        Hashtbl.add ids nid (-1);
        Array.iter (fun r -> visit r.r_child) runs;
        Hashtbl.replace ids nid !next;
        incr next;
        order := node :: !order
      end
  in
  visit t.f_root;
  let buf = Buffer.create 256 in
  Buffer.add_string buf "beast-feasible 1\n";
  Buffer.add_string buf ("space " ^ t.f_space ^ "\n");
  Buffer.add_string buf
    ("iters " ^ String.concat " " (Array.to_list t.f_iters) ^ "\n");
  Buffer.add_string buf (Printf.sprintf "count %d\n" (count t));
  let ref_of = function
    | Empty -> "E"
    | Accept -> "A"
    | Node { nid; _ } -> string_of_int (Hashtbl.find ids nid)
  in
  List.iter
    (fun node ->
      match node with
      | Empty | Accept -> ()
      | Node { runs; _ } ->
        Buffer.add_string buf (Printf.sprintf "node %s" (ref_of node));
        Array.iter
          (fun r ->
            Buffer.add_string buf
              (Printf.sprintf " %d:%d:%d:%s" r.r_lo r.r_step r.r_len
                 (ref_of r.r_child)))
          runs;
        Buffer.add_char buf '\n')
    (List.rev !order);
  Buffer.add_string buf ("root " ^ ref_of t.f_root ^ "\n");
  Buffer.contents buf
