(* Bytecode compiler and register VM.

   Register file layout: [0, n_slots) hold the space's iterators and
   derived variables (so opaque bodies can read them through the plan's
   slot lookup); above that, four dedicated registers per loop
   (step, trip count, index, scratch test) and a scratch region reused by
   expression evaluation. Jump operands are label ids during compilation
   and absolute addresses after [resolve].

   Instrumentation (Beast_obs) is a compile-time decision: with
   [~instrument:true] the compiler interleaves dedicated bookkeeping
   instructions (Iobs/Itic/Itoc/Iltic/Iltoc); an uninstrumented program
   contains none of them, so tracing costs nothing when off. *)

open Beast_obs

type instr =
  | Iconst of int * int
  | Imove of int * int
  | Ibin of Expr.binop * int * int * int
  | Ineg of int * int
  | Inot of int * int
  | Imin of int * int * int
  | Imax of int * int * int
  | Iabs of int * int
  | Iceil of int * int * int
  | Icall of int * int  (* dst <- funs.(fid) regs *)
  | Ijmp of int
  | Ijz of int * int
  | Ijnz of int * int
  | Iinc of int
  | Itrip of int * int * int * int  (* dst <- trip count of (start stop step) regs *)
  | Iprune of int * int  (* count constraint, jump to loop continuation *)
  | Isprune of int * int  (* replay dead-value table #id at depth d *)
  | Ihit
  | Iiters
  | Imat of int * int  (* arrays.(aid) <- iterfuns.(iid) regs *)
  | Ilen of int * int  (* dst <- length arrays.(aid) *)
  | Ild of int * int * int  (* dst <- arrays.(aid).(regs.(idx)) *)
  | Iobs of int  (* count a loop entry at depth d; sample throughput *)
  | Itic  (* start the constraint-evaluation stopwatch *)
  | Itoc of int  (* charge the stopwatch to constraint c *)
  | Iltic of int  (* start the level stopwatch for depth d *)
  | Iltoc of int  (* charge the level stopwatch to depth d *)
  | Ihalt

type program = {
  prog_plan : Plan.t;
  code : instr array;
  n_regs : int;
  funs : (int array -> int) array;
  iterfuns : (int array -> int array) array;
  static_arrays : (int * int array) list;  (* array id -> contents *)
  n_arrays : int;
  sprunes : (int * (int * int) array * (int * int) array) array;
      (* table id -> (slot, dead values, aggregated (c_index, fired)) *)
  instrumented : bool;
}

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

type asm = {
  mutable instrs : instr array;
  mutable n : int;
  mutable labels : int array;
  mutable n_labels : int;
  mutable max_reg : int;
}

let new_asm () =
  { instrs = Array.make 64 Ihalt; n = 0; labels = Array.make 16 (-1);
    n_labels = 0; max_reg = 0 }

let emit a i =
  if a.n = Array.length a.instrs then begin
    let bigger = Array.make (2 * a.n) Ihalt in
    Array.blit a.instrs 0 bigger 0 a.n;
    a.instrs <- bigger
  end;
  a.instrs.(a.n) <- i;
  a.n <- a.n + 1

let new_label a =
  if a.n_labels = Array.length a.labels then begin
    let bigger = Array.make (2 * a.n_labels) (-1) in
    Array.blit a.labels 0 bigger 0 a.n_labels;
    a.labels <- bigger
  end;
  let l = a.n_labels in
  a.n_labels <- l + 1;
  l

let mark a l = a.labels.(l) <- a.n

let touch a r = if r > a.max_reg then a.max_reg <- r

let resolve a =
  let addr l =
    let x = a.labels.(l) in
    if x < 0 then invalid_arg "Engine_vm: unmarked label";
    x
  in
  Array.init a.n (fun i ->
      match a.instrs.(i) with
      | Ijmp l -> Ijmp (addr l)
      | Ijz (r, l) -> Ijz (r, addr l)
      | Ijnz (r, l) -> Ijnz (r, addr l)
      | Iprune (c, l) -> Iprune (c, addr l)
      | other -> other)

let compile ?(instrument = false) (plan : Plan.t) =
  let a = new_asm () in
  let n_slots = max 1 plan.Plan.n_slots in
  touch a (n_slots - 1);
  let n_loops = List.length plan.Plan.iter_order in
  (* Four persistent registers per loop above the slots. *)
  let loop_reg_base = n_slots in
  let scratch_base = loop_reg_base + (4 * n_loops) in
  let funs = ref [] and n_funs = ref 0 in
  let iterfuns = ref [] and n_iterfuns = ref 0 in
  let static_arrays = ref [] and n_arrays = ref 0 in
  let add_fun f =
    let id = !n_funs in
    incr n_funs;
    funs := f :: !funs;
    id
  in
  let add_iterfun f =
    let id = !n_iterfuns in
    incr n_iterfuns;
    iterfuns := f :: !iterfuns;
    id
  in
  let add_array contents =
    let id = !n_arrays in
    incr n_arrays;
    (match contents with
    | Some vs -> static_arrays := (id, vs) :: !static_arrays
    | None -> ());
    id
  in
  let sprunes = ref [] and n_sprunes = ref 0 in
  let add_sprune slot dead =
    let id = !n_sprunes in
    incr n_sprunes;
    sprunes := (slot, dead, Plan.static_prune_counts dead) :: !sprunes;
    id
  in
  (* Compile an expression so its value lands in [dst]; [tmp] is the first
     free scratch register. *)
  let rec compile_expr (e : Plan.cexpr) dst tmp =
    touch a dst;
    touch a tmp;
    match e with
    | CLit k -> emit a (Iconst (dst, k))
    | CSlot i -> if i <> dst then emit a (Imove (dst, i))
    | CUn (Neg, x) ->
      compile_expr x dst tmp;
      emit a (Ineg (dst, dst))
    | CUn (Not, x) ->
      compile_expr x dst tmp;
      emit a (Inot (dst, dst))
    | CBin (And, x, y) ->
      let l_false = new_label a and l_end = new_label a in
      compile_expr x dst tmp;
      emit a (Ijz (dst, l_false));
      compile_expr y dst tmp;
      emit a (Ijz (dst, l_false));
      emit a (Iconst (dst, 1));
      emit a (Ijmp l_end);
      mark a l_false;
      emit a (Iconst (dst, 0));
      mark a l_end
    | CBin (Or, x, y) ->
      let l_true = new_label a and l_end = new_label a in
      compile_expr x dst tmp;
      emit a (Ijnz (dst, l_true));
      compile_expr y dst tmp;
      emit a (Ijnz (dst, l_true));
      emit a (Iconst (dst, 0));
      emit a (Ijmp l_end);
      mark a l_true;
      emit a (Iconst (dst, 1));
      mark a l_end
    | CBin (op, x, y) ->
      compile_expr x dst tmp;
      compile_expr y tmp (tmp + 1);
      emit a (Ibin (op, dst, dst, tmp))
    | CIf (c, t, f) ->
      let l_else = new_label a and l_end = new_label a in
      compile_expr c dst tmp;
      emit a (Ijz (dst, l_else));
      compile_expr t dst tmp;
      emit a (Ijmp l_end);
      mark a l_else;
      compile_expr f dst tmp;
      mark a l_end
    | CCall (Min, [ x; y ]) ->
      compile_expr x dst tmp;
      compile_expr y tmp (tmp + 1);
      emit a (Imin (dst, dst, tmp))
    | CCall (Max, [ x; y ]) ->
      compile_expr x dst tmp;
      compile_expr y tmp (tmp + 1);
      emit a (Imax (dst, dst, tmp))
    | CCall (Abs, [ x ]) ->
      compile_expr x dst tmp;
      emit a (Iabs (dst, dst))
    | CCall (Ceil_div, [ x; y ]) ->
      compile_expr x dst tmp;
      compile_expr y tmp (tmp + 1);
      emit a (Iceil (dst, dst, tmp))
    | CCall _ -> invalid_arg "Engine_vm: malformed builtin call"
  in
  let compile_compute compute dst =
    match (compute : Plan.compute) with
    | CE e -> compile_expr e dst (scratch_base + 1)
    | CF (_, f) -> emit a (Icall (add_fun f, dst))
  in
  (* [depth] indexes the per-loop register block; [cont] is the label a
     firing constraint jumps to (continuation of the innermost loop, or
     the end of the program at depth 0). *)
  let rec compile_steps steps ~depth ~cont =
    match (steps : Plan.step list) with
    | [] -> ()
    | Yield :: rest ->
      emit a Ihit;
      compile_steps rest ~depth ~cont
    | Derive { d_slot; d_compute; _ } :: rest ->
      compile_compute d_compute d_slot;
      compile_steps rest ~depth ~cont
    | Check { c_index; c_compute; _ } :: rest ->
      let r = scratch_base in
      touch a r;
      if instrument then emit a Itic;
      compile_compute c_compute r;
      if instrument then emit a (Itoc c_index);
      let l_pass = new_label a in
      emit a (Ijz (r, l_pass));
      emit a (Iprune (c_index, cont));
      mark a l_pass;
      compile_steps rest ~depth ~cont
    | Static_prune { sp_slot; sp_dead; _ } :: rest ->
      emit a (Isprune (add_sprune sp_slot sp_dead, depth));
      compile_steps rest ~depth ~cont
    | Loop { l_slot; l_iter; l_body; _ } :: rest ->
      let base = loop_reg_base + (4 * depth) in
      let r_step = base and r_n = base + 1 and r_i = base + 2 and r_t = base + 3 in
      touch a r_t;
      let l_test = new_label a
      and l_cont = new_label a
      and l_exit = new_label a in
      if instrument then emit a (Iltic depth);
      (match l_iter with
      | CRange (start, stop, step) ->
        (* var <- start; step/trip in loop registers; index counts 0..n. *)
        compile_expr start l_slot (scratch_base + 1);
        compile_expr stop r_n (scratch_base + 1);
        compile_expr step r_step (scratch_base + 1);
        emit a (Itrip (r_n, l_slot, r_n, r_step));
        emit a (Iconst (r_i, 0));
        mark a l_test;
        emit a (Ibin (Lt, r_t, r_i, r_n));
        emit a (Ijz (r_t, l_exit));
        emit a Iiters;
        if instrument then emit a (Iobs depth);
        compile_steps l_body ~depth:(depth + 1) ~cont:l_cont;
        mark a l_cont;
        emit a (Ibin (Add, l_slot, l_slot, r_step));
        emit a (Iinc r_i);
        emit a (Ijmp l_test)
      | CValues _ | CDyn _ ->
        let aid, mat =
          match l_iter with
          | CValues vs -> (add_array (Some vs), None)
          | CDyn (_, f) -> (add_array None, Some (add_iterfun f))
          | CRange _ -> assert false
        in
        (match mat with
        | Some iid -> emit a (Imat (aid, iid))
        | None -> ());
        emit a (Ilen (r_n, aid));
        emit a (Iconst (r_i, 0));
        mark a l_test;
        emit a (Ibin (Lt, r_t, r_i, r_n));
        emit a (Ijz (r_t, l_exit));
        emit a (Ild (l_slot, aid, r_i));
        emit a Iiters;
        if instrument then emit a (Iobs depth);
        compile_steps l_body ~depth:(depth + 1) ~cont:l_cont;
        mark a l_cont;
        emit a (Iinc r_i);
        emit a (Ijmp l_test));
      mark a l_exit;
      if instrument then emit a (Iltoc depth);
      compile_steps rest ~depth ~cont
  in
  let l_end = new_label a in
  compile_steps plan.Plan.steps ~depth:0 ~cont:l_end;
  mark a l_end;
  emit a Ihalt;
  {
    prog_plan = plan;
    code = resolve a;
    n_regs = a.max_reg + 1;
    funs = Array.of_list (List.rev !funs);
    iterfuns = Array.of_list (List.rev !iterfuns);
    static_arrays = !static_arrays;
    n_arrays = max 1 !n_arrays;
    sprunes = Array.of_list (List.rev !sprunes);
    instrumented = instrument;
  }

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

let run ?on_hit (p : program) =
  let plan = p.prog_plan in
  let r = Engine.Run.start plan in
  let regs = Array.make p.n_regs 0 in
  (* Registers [0, n_slots) ARE the plan's slots, so the provenance
     accumulator reads them directly. Resolved to no-op closures when no
     collector is installed; per-depth entries need an instrumented
     program ({!run_plan} selects one whenever provenance is on). *)
  let prov_fire, prov_hit =
    match r.Engine.Run.prov with
    | None -> ((fun _ -> ()), fun () -> ())
    | Some (_, pl) ->
      ( (fun c -> Provenance.fire pl regs c),
        fun () -> Provenance.hit pl regs )
  in
  let arrays = Array.make p.n_arrays [||] in
  List.iter (fun (aid, vs) -> arrays.(aid) <- vs) p.static_arrays;
  let pruned = r.Engine.Run.pruned in
  let survivors = ref 0 in
  let loop_iterations = ref 0 in
  (* Instrumentation state; only touched by instructions that exist in
     instrumented programs. The VM cannot cheaply track its position in
     the outermost loop, so progress ticks report frac = -1 (unknown). *)
  let depth_entries = r.Engine.Run.depth_entries in
  let level_time = r.Engine.Run.level_time in
  let charges =
    Array.init (Array.length plan.Plan.constraint_info) (Engine.Run.charge r)
  in
  let lstart = Array.make (Array.length level_time) 0 in
  let tic = ref 0 in
  let hit =
    match on_hit with
    | None -> fun () -> incr survivors
    | Some f ->
      let lookup = Plan.lookup_of_slots plan regs in
      fun () ->
        incr survivors;
        f lookup
  in
  let code = p.code in
  let pc = ref 0 in
  let running = ref true in
  let dispatch () =
    while !running do
      match code.(!pc) with
    | Iconst (d, k) ->
      regs.(d) <- k;
      incr pc
    | Imove (d, s) ->
      regs.(d) <- regs.(s);
      incr pc
    | Ibin (op, d, x, y) ->
      regs.(d) <- Plan.eval_int_binop op regs.(x) regs.(y);
      incr pc
    | Ineg (d, x) ->
      regs.(d) <- -regs.(x);
      incr pc
    | Inot (d, x) ->
      regs.(d) <- (if regs.(x) = 0 then 1 else 0);
      incr pc
    | Imin (d, x, y) ->
      regs.(d) <- min regs.(x) regs.(y);
      incr pc
    | Imax (d, x, y) ->
      regs.(d) <- max regs.(x) regs.(y);
      incr pc
    | Iabs (d, x) ->
      regs.(d) <- abs regs.(x);
      incr pc
    | Iceil (d, x, y) ->
      let dv = regs.(y) in
      if dv = 0 then raise Division_by_zero;
      regs.(d) <- (regs.(x) + dv - 1) / dv;
      incr pc
    | Icall (fid, d) ->
      regs.(d) <- p.funs.(fid) regs;
      incr pc
    | Ijmp t -> pc := t
    | Ijz (r, t) -> if regs.(r) = 0 then pc := t else incr pc
    | Ijnz (r, t) -> if regs.(r) <> 0 then pc := t else incr pc
    | Iinc r ->
      regs.(r) <- regs.(r) + 1;
      incr pc
    | Itrip (d, s, e, st) ->
      let start = regs.(s) and stop = regs.(e) and step = regs.(st) in
      if step = 0 then Engine.zero_step plan.Plan.slot_names.(s);
      regs.(d) <- Plan.trip_count ~start ~stop ~step;
      incr pc
    | Iprune (c, t) ->
      pruned.(c) <- pruned.(c) + 1;
      prov_fire c;
      pc := t
    | Isprune (id, depth) ->
      let slot, dead, counts = p.sprunes.(id) in
      let n = Array.length dead in
      loop_iterations := !loop_iterations + n;
      if p.instrumented then depth_entries.(depth) <- depth_entries.(depth) + n;
      (match r.Engine.Run.prov with
      | None ->
        Array.iter (fun (c, m) -> pruned.(c) <- pruned.(c) + m) counts
      | Some (_, pl) ->
        Array.iter
          (fun (v, c) ->
            pruned.(c) <- pruned.(c) + 1;
            Provenance.static_fire pl regs ~slot ~value:v c)
          dead);
      incr pc
    | Ihit ->
      hit ();
      prov_hit ();
      incr pc
    | Iiters ->
      incr loop_iterations;
      incr pc
    | Imat (aid, iid) ->
      arrays.(aid) <- p.iterfuns.(iid) regs;
      incr pc
    | Ilen (d, aid) ->
      regs.(d) <- Array.length arrays.(aid);
      incr pc
    | Ild (d, aid, i) ->
      regs.(d) <- arrays.(aid).(regs.(i));
      incr pc
    | Iobs d ->
      depth_entries.(d) <- depth_entries.(d) + 1;
      Engine.Run.tick r ~points:!loop_iterations ~survivors:!survivors;
      incr pc
    | Itic ->
      tic := Clock.now_ns ();
      incr pc
    | Itoc c ->
      charges.(c) (Clock.now_ns () - !tic);
      incr pc
    | Iltic d ->
      lstart.(d) <- Clock.now_ns ();
      incr pc
    | Iltoc d ->
      level_time.(d) <- level_time.(d) + (Clock.now_ns () - lstart.(d));
      incr pc
    | Ihalt -> running := false
    done
  in
  Engine.Run.sweep r "sweep:vm" dispatch;
  Engine.Run.finish r ~survivors:!survivors ~loop_iterations:!loop_iterations

(* Provenance needs the per-depth entries only instrumented programs
   count, so it selects one too. *)
let run_plan ?on_hit plan =
  run ?on_hit
    (compile
       ~instrument:(Engine.Run.instrumenting () || Provenance.enabled ())
       plan)

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)
(* ------------------------------------------------------------------ *)

let instruction_count p = Array.length p.code

let instr_to_string = function
  | Iconst (d, k) -> Printf.sprintf "const   r%d <- %d" d k
  | Imove (d, s) -> Printf.sprintf "move    r%d <- r%d" d s
  | Ibin (op, d, x, y) ->
    Printf.sprintf "bin     r%d <- r%d %s r%d" d x (Expr.binop_symbol op) y
  | Ineg (d, x) -> Printf.sprintf "neg     r%d <- -r%d" d x
  | Inot (d, x) -> Printf.sprintf "not     r%d <- !r%d" d x
  | Imin (d, x, y) -> Printf.sprintf "min     r%d <- min(r%d, r%d)" d x y
  | Imax (d, x, y) -> Printf.sprintf "max     r%d <- max(r%d, r%d)" d x y
  | Iabs (d, x) -> Printf.sprintf "abs     r%d <- |r%d|" d x
  | Iceil (d, x, y) -> Printf.sprintf "ceil    r%d <- ceil(r%d / r%d)" d x y
  | Icall (f, d) -> Printf.sprintf "call    r%d <- fun#%d" d f
  | Ijmp t -> Printf.sprintf "jmp     @%d" t
  | Ijz (r, t) -> Printf.sprintf "jz      r%d @%d" r t
  | Ijnz (r, t) -> Printf.sprintf "jnz     r%d @%d" r t
  | Iinc r -> Printf.sprintf "inc     r%d" r
  | Itrip (d, s, e, st) ->
    Printf.sprintf "trip    r%d <- trip(r%d, r%d, r%d)" d s e st
  | Iprune (c, t) -> Printf.sprintf "prune   #%d @%d" c t
  | Isprune (id, d) -> Printf.sprintf "sprune  tbl%d depth %d" id d
  | Ihit -> "hit"
  | Iiters -> "iters"
  | Imat (a, i) -> Printf.sprintf "mat     arr%d <- iter#%d" a i
  | Ilen (d, a) -> Printf.sprintf "len     r%d <- |arr%d|" d a
  | Ild (d, a, i) -> Printf.sprintf "load    r%d <- arr%d[r%d]" d a i
  | Iobs d -> Printf.sprintf "obs     depth %d" d
  | Itic -> "tic"
  | Itoc c -> Printf.sprintf "toc     #%d" c
  | Iltic d -> Printf.sprintf "ltic    depth %d" d
  | Iltoc d -> Printf.sprintf "ltoc    depth %d" d
  | Ihalt -> "halt"

let disassemble p =
  let buf = Buffer.create 1024 in
  Array.iteri
    (fun i instr ->
      Buffer.add_string buf (Printf.sprintf "%4d  %s\n" i (instr_to_string instr)))
    p.code;
  Buffer.contents buf
