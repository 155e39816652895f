(* Single-pass pruning provenance: exact per-constraint removal counts,
   per-depth loop entries and an outer-value survivor-density map from
   one sweep.

   Exactness argument. The canonical nest evaluates constraints in
   pre-order; a constraint hoisted to depth d reads only slots bound at
   depths <= d (or derived earlier in its own group). When it fires, the
   engine abandons a subtree whose cardinality is the product of the
   trip counts of the loops at depths d+1..n. Every abandoned point is
   charged to the FIRST constraint (in evaluation order) that rejects
   its prefix — the same exclusive attribution the n+1-prefix-sweep
   Stats.funnel measures — because deeper/later constraints were never
   reached for those points. The subtree cardinality is computed by a
   per-check compiled COUNTING PROGRAM over the tail of the (linear)
   nest: loops whose slot no deeper bound reads contribute a trip-count
   factor (constant-folded when static, re-evaluated from the live slot
   array otherwise); loops whose slot feeds a deeper bound (dim_vec
   feeding vec_mul's range in GEMM) are enumerated value by value, with
   intervening derived slots recomputed, so data-dependent subtrees
   count exactly too. Enumeration visits only loop-bound nodes of the
   REMOVED subtree, so its total cost is bounded by the number of
   points removed — one sweep's worth, against the n+1 sweeps it
   replaces. Only opaque closures below the check (CDyn iterators, or
   deferred derive bodies whose slot a deeper bound reads) defeat the
   analysis and yield Inexact.

   The density map is keyed by the VALUE of the outermost iterator, not
   by chunk index: Plan.chunk_outer blocks partition the outer trip
   sequence, so per-value cells sum across any chunk/shard split and
   re-sort deterministically — the property that makes merged shard
   provenance byte-identical to an unsharded run's. *)

module Jsonx = Beast_obs.Jsonx

type removal =
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

(* One pre-order item of a counting program: what runs below a check in
   the linear nest, with the checks themselves (irrelevant to subtree
   cardinality — every point under a firing passed all earlier checks)
   and Yield dropped. *)
type titem =
  | TDerive of int * Plan.cexpr  (* slot, body *)
  | TDerive_opaque of int  (* deferred/closure body: reads unknown *)
  | TLoop of int * Plan.citer

(* A tail defeats exact counting (opaque closure in a load-bearing
   position); the whole constraint degrades to Inexact. *)
exception Opaque

let union a b = List.sort_uniq compare (List.rev_append a b)
let remove s l = List.filter (fun x -> x <> s) l

let citer_reads = function
  | Plan.CValues _ | Plan.CDyn _ -> []
  | Plan.CRange (a, b, c) ->
    union (Plan.cexpr_slots a) (union (Plan.cexpr_slots b) (Plan.cexpr_slots c))

(* Compile a counting program bottom-up. Returns the counter, the slots
   it reads from OUTSIDE the tail (reads satisfied by an earlier tail
   item are discharged) and whether it ever WRITES a slot (it does only
   when something is enumerated or recomputed — the common all-hoisted
   program is read-only and may run directly on the engine's live slot
   array, saving a scratch copy per firing). A loop whose slot nothing
   deeper reads hoists to a trip-count factor; one that feeds a deeper
   bound is enumerated, rebinding its slot per value — likewise
   derives, which are executed only when some deeper bound needs their
   slot. *)
(* Memoise a compiled sub-program on the values of its free slots. An
   enumerated loop runs its body once per value per firing; across the
   tens of thousands of firings of a hot constraint the body sees only
   as many distinct free valuations as the product of its read slots'
   value ranges, so the table collapses the enumeration's inner work to
   lookups. Skipping a cached body also skips its writes, which is
   sound: a body only writes slots bound inside itself, which nothing
   outside it reads. *)
let memoize (f, reads, _writes) =
  match reads with
  | [] -> f
  | [ s ] ->
    let memo : (int, int) Hashtbl.t = Hashtbl.create 64 in
    fun slots ->
      let key = slots.(s) in
      (match Hashtbl.find_opt memo key with
      | Some k -> k
      | None ->
        let k = f slots in
        Hashtbl.add memo key k;
        k)
  | _ ->
    let memo : (int list, int) Hashtbl.t = Hashtbl.create 64 in
    fun slots ->
      let key = List.map (fun s -> slots.(s)) reads in
      (match Hashtbl.find_opt memo key with
      | Some k -> k
      | None ->
        let k = f slots in
        Hashtbl.add memo key k;
        k)

let compile_tail tail =
  List.fold_right
    (fun item ((f, reads, writes) as acc) ->
      match item with
      | TDerive (s, e) ->
        if List.mem s reads then
          let ereads = Plan.cexpr_slots e in
          let e = Plan.compile_cexpr e in
          ( (fun slots ->
              slots.(s) <- e slots;
              f slots),
            union ereads (remove s reads),
            true )
        else acc
      | TDerive_opaque s -> if List.mem s reads then raise Opaque else acc
      | TLoop (s, it) -> (
        match it with
        | Plan.CDyn _ -> raise Opaque
        | Plan.CValues vs ->
          if List.mem s reads then
            let f = memoize (f, reads, writes) in
            ( (fun slots ->
                let acc = ref 0 in
                Array.iter
                  (fun v ->
                    slots.(s) <- v;
                    acc := !acc + f slots)
                  vs;
                !acc),
              remove s reads,
              true )
          else
            let n = Array.length vs in
            ((fun slots -> n * f slots), reads, writes)
        | Plan.CRange (a, b, c) ->
          let breads = citer_reads it in
          let a = Plan.compile_cexpr a
          and b = Plan.compile_cexpr b
          and c = Plan.compile_cexpr c in
          if List.mem s reads then
            let f = memoize (f, reads, writes) in
            ( (fun slots ->
                let start = a slots and step = c slots in
                let acc = ref 0 in
                let v = ref start in
                for _ = 1 to Plan.trip_count ~start ~stop:(b slots) ~step do
                  slots.(s) <- !v;
                  acc := !acc + f slots;
                  v := !v + step
                done;
                !acc),
              union breads (remove s reads),
              true )
          else
            ( (fun slots ->
                Plan.trip_count ~start:(a slots) ~stop:(b slots)
                  ~step:(c slots)
                * f slots),
              union breads reads,
              writes )))
    tail
    ((fun _ -> 1), [], false)

let attribution (plan : Plan.t) =
  let n_c = Array.length plan.Plan.constraint_info in
  let n_loops = List.length plan.Plan.iter_order in
  (* Pre-order walk: when is each slot bound, when does each check run,
     and what does the tail after each check look like? A slot
     (iterator or derived) is live at a check iff its binding step
     precedes the check in pre-order. *)
  let bind_seq = Array.make (max 1 plan.Plan.n_slots) max_int in
  let check_seq = Array.make (max 1 n_c) 0 in
  let check_depth = Array.make (max 1 n_c) 0 in
  let items = ref [] in
  let seq = ref 0 in
  let next () =
    incr seq;
    !seq
  in
  let rec walk depth steps =
    List.iter
      (fun (step : Plan.step) ->
        match step with
        | Plan.Derive { d_slot; d_compute; _ } ->
          bind_seq.(d_slot) <- next ();
          items :=
            (!seq,
             match d_compute with
             | Plan.CE e -> TDerive (d_slot, e)
             | Plan.CF _ -> TDerive_opaque d_slot)
            :: !items
        | Plan.Check { c_index; _ } ->
          check_seq.(c_index) <- next ();
          check_depth.(c_index) <- depth
        | Plan.Yield -> ()
        | Plan.Static_prune _ ->
          (* Dead values are replayed as statistics, not executed: they
             are not part of the live nest the counting programs model. *)
          ()
        | Plan.Loop { l_slot; l_iter; l_body; _ } ->
          bind_seq.(l_slot) <- next ();
          items := (!seq, TLoop (l_slot, l_iter)) :: !items;
          walk (depth + 1) l_body)
      steps
  in
  walk 0 plan.Plan.steps;
  let items = List.rev !items in
  let removal_for c =
    (* The nest is linear, so the pre-order tail after the check IS the
       subtree's program. *)
    let tail =
      List.filter_map
        (fun (s, it) -> if s > check_seq.(c) then Some it else None)
        items
    in
    match compile_tail tail with
    | exception Opaque -> Inexact
    | f, reads, writes ->
      if not (List.for_all (fun s -> bind_seq.(s) < check_seq.(c)) reads)
      then Inexact (* defensive: a well-formed plan never gets here *)
      else if reads = [] then (
        (* No outside reads: the count is a plan-time constant (the
           program only reads slots it binds itself). *)
        match f (Array.make (max 1 plan.Plan.n_slots) 0) with
        | k -> Static k
        | exception _ -> Inexact)
      else if writes then
        (* The counter rebinds enumerated slots as it runs; give it a
           scratch copy so a firing never perturbs the engine's live
           slot array. Inner enumerations are memoised on their free
           slots by [compile_tail], so repeat firings under the same
           outer valuation cost table lookups, not re-enumeration. *)
        Dyn (fun slots -> f (Array.copy slots))
      else
        (* Read-only program: safe on the live array, no per-firing
           allocation. *)
        Dyn f
  in
  {
    at_names = Array.map fst plan.Plan.constraint_info;
    at_depth = Array.sub check_depth 0 n_c;
    at_removal = Array.init n_c removal_for;
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
}

let local_of at =
  let n_c = Array.length at.at_names in
  {
    lat = at;
    l_removed = Array.make (max 1 n_c) 0;
    l_exact = Array.make (max 1 n_c) true;
    l_cells = Hashtbl.create 64;
  }

let cell_of tbl v =
  match Hashtbl.find_opt tbl v with
  | Some c -> c
  | None ->
    let c = { ca_survivors = 0; ca_removed = 0 } in
    Hashtbl.replace tbl v c;
    c

let fire local slots c =
  let at = local.lat in
  match at.at_removal.(c) with
  | Static k ->
    local.l_removed.(c) <- local.l_removed.(c) + k;
    if at.at_depth.(c) > 0 && at.at_outer_slot >= 0 then begin
      let cell = cell_of local.l_cells slots.(at.at_outer_slot) in
      cell.ca_removed <- cell.ca_removed + k
    end
  | Dyn f -> (
    match f slots with
    | k ->
      local.l_removed.(c) <- local.l_removed.(c) + k;
      if at.at_depth.(c) > 0 && at.at_outer_slot >= 0 then begin
        let cell = cell_of local.l_cells slots.(at.at_outer_slot) in
        cell.ca_removed <- cell.ca_removed + k
      end
    (* A bound expression that divides by a not-yet-meaningful value:
       the exact count is lost for this constraint, not for the run. *)
    | exception _ -> local.l_exact.(c) <- false)
  | Inexact -> local.l_exact.(c) <- false

(* Replay one Static_prune dead value: the engine never binds it, so
   substitute it into the live slot array for the duration of the
   firing (the removal program and the density cell both read it),
   then restore. *)
let static_fire local slots ~slot ~value c =
  let saved = slots.(slot) in
  slots.(slot) <- value;
  fire local slots c;
  slots.(slot) <- saved

let hit local slots =
  let at = local.lat in
  if at.at_outer_slot >= 0 then begin
    let cell = cell_of local.l_cells slots.(at.at_outer_slot) in
    cell.ca_survivors <- cell.ca_survivors + 1
  end

(* ------------------------------------------------------------------ *)
(* Ambient collector                                                   *)
(* ------------------------------------------------------------------ *)

type schema = {
  s_names : string array;
  s_depths : int array;
  s_iters : string list;
  s_n_loops : int;
}

type t = {
  mutex : Mutex.t;
  mutable schema : schema option;
  mutable g_removed : int array;
  mutable g_exact : bool array;
  mutable g_depth_entries : int array;
  g_cells : (int, cell_acc) Hashtbl.t;
}

let create () =
  {
    mutex = Mutex.create ();
    schema = None;
    g_removed = [||];
    g_exact = [||];
    g_depth_entries = [||];
    g_cells = Hashtbl.create 64;
  }

(* Same discipline as the Obs context: a plain shared slot, read once per
   run before any domain spawns, so the engines' disabled path is one
   load-and-branch. [with_current] is its only writer. *)
let current_ref : t option ref = ref None

let with_current c f =
  let prev = !current_ref in
  current_ref := Some c;
  Fun.protect ~finally:(fun () -> current_ref := prev) f

let current () = !current_ref
let enabled () = !current_ref <> None

let publish t ~depth_entries local =
  let at = local.lat in
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () ->
      (match t.schema with
      | None ->
        t.schema <-
          Some
            {
              s_names = at.at_names;
              s_depths = at.at_depth;
              s_iters = at.at_iters;
              s_n_loops = at.at_n_loops;
            };
        t.g_removed <- Array.make (Array.length at.at_names) 0;
        t.g_exact <- Array.make (Array.length at.at_names) true;
        t.g_depth_entries <- Array.make at.at_n_loops 0
      | Some s ->
        if Array.length s.s_names <> Array.length at.at_names then
          invalid_arg "Provenance.publish: runs disagree on the constraint list");
      Array.iteri
        (fun i _ ->
          t.g_removed.(i) <- t.g_removed.(i) + local.l_removed.(i);
          t.g_exact.(i) <- t.g_exact.(i) && local.l_exact.(i))
        t.g_removed;
      let n = min (Array.length t.g_depth_entries) (Array.length depth_entries) in
      for d = 0 to n - 1 do
        t.g_depth_entries.(d) <- t.g_depth_entries.(d) + depth_entries.(d)
      done;
      Hashtbl.iter
        (fun v (c : cell_acc) ->
          let g = cell_of t.g_cells v in
          g.ca_survivors <- g.ca_survivors + c.ca_survivors;
          g.ca_removed <- g.ca_removed + c.ca_removed)
        local.l_cells)

(* ------------------------------------------------------------------ *)
(* Summaries                                                           *)
(* ------------------------------------------------------------------ *)

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

let cells_sorted tbl =
  Hashtbl.fold
    (fun v (c : cell_acc) acc ->
      { cell_value = v; cell_survivors = c.ca_survivors;
        cell_removed = c.ca_removed }
      :: acc)
    tbl []
  |> List.sort (fun a b -> compare a.cell_value b.cell_value)

let summary t =
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () ->
      match t.schema with
      | None -> invalid_arg "Provenance.summary: nothing was published"
      | Some s ->
        {
          pv_iters = s.s_iters;
          pv_constraints =
            List.init (Array.length s.s_names) (fun i ->
                {
                  pc_name = s.s_names.(i);
                  pc_depth = s.s_depths.(i);
                  pc_removed =
                    (if t.g_exact.(i) then Some t.g_removed.(i) else None);
                });
          pv_depth_entries = Array.to_list t.g_depth_entries;
          pv_cells = cells_sorted t.g_cells;
        })

let total_removed s =
  List.fold_left
    (fun acc r ->
      match (acc, r.pc_removed) with
      | Some a, Some k -> Some (a + k)
      | _ -> None)
    (Some 0) s.pv_constraints

let with_collector f =
  let c = create () in
  let x = with_current c f in
  (x, summary c)

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
    else begin
      let constraints =
        List.mapi
          (fun i r ->
            let removed =
              List.fold_left
                (fun acc s ->
                  match (acc, (List.nth s.pv_constraints i).pc_removed) with
                  | Some a, Some k -> Some (a + k)
                  | _ -> None)
                (Some 0) all
            in
            { r with pc_removed = removed })
          first.pv_constraints
      in
      let depth_entries =
        List.fold_left
          (fun acc s -> List.map2 ( + ) acc s.pv_depth_entries)
          (List.map (fun _ -> 0) first.pv_depth_entries)
          all
      in
      let tbl : (int, cell_acc) Hashtbl.t = Hashtbl.create 64 in
      List.iter
        (fun s ->
          List.iter
            (fun c ->
              let g = cell_of tbl c.cell_value in
              g.ca_survivors <- g.ca_survivors + c.cell_survivors;
              g.ca_removed <- g.ca_removed + c.cell_removed)
            s.pv_cells)
        all;
      Ok
        {
          pv_iters = first.pv_iters;
          pv_constraints = constraints;
          pv_depth_entries = depth_entries;
          pv_cells = cells_sorted tbl;
        }
    end

(* ------------------------------------------------------------------ *)
(* Serialization                                                       *)
(* ------------------------------------------------------------------ *)

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let add_json buf ~indent s =
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let inner = indent ^ "  " in
  add "{\n";
  add "%s\"iters\": [" inner;
  List.iteri
    (fun i v ->
      add "%s\"%s\"" (if i = 0 then "" else ", ") (escape_string v))
    s.pv_iters;
  add "],\n";
  add "%s\"constraints\": [" inner;
  List.iteri
    (fun i r ->
      add "%s\n%s  { \"name\": \"%s\", \"depth\": %d, \"removed\": %s }"
        (if i = 0 then "" else ",")
        inner (escape_string r.pc_name) r.pc_depth
        (match r.pc_removed with
        | Some k -> string_of_int k
        | None -> "null"))
    s.pv_constraints;
  if s.pv_constraints <> [] then add "\n%s" inner;
  add "],\n";
  add "%s\"depth_entries\": [" inner;
  List.iteri
    (fun i k -> add "%s%d" (if i = 0 then "" else ", ") k)
    s.pv_depth_entries;
  add "],\n";
  add "%s\"cells\": [" inner;
  List.iteri
    (fun i c ->
      add "%s\n%s  { \"value\": %d, \"survivors\": %d, \"removed\": %d }"
        (if i = 0 then "" else ",")
        inner c.cell_value c.cell_survivors c.cell_removed)
    s.pv_cells;
  if s.pv_cells <> [] then add "\n%s" inner;
  add "]\n";
  add "%s}" indent

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
