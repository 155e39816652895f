type error = Unsupported of string

let pp_error ppf (Unsupported msg) = Format.fprintf ppf "unsupported: %s" msg

exception Error of error

let unsupported fmt = Printf.ksprintf (fun s -> raise (Error (Unsupported s))) fmt

let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
      | _ -> '_')
    name

let var_names (plan : Plan.t) =
  Array.map (fun n -> "v_" ^ sanitize n) plan.Plan.slot_names

(* Only a division by a nonzero literal is emitted as plain C: any other
   divisor goes through a checked helper, since C leaves division by
   zero undefined (gcc assumes it away) where OCaml raises. *)
let nonzero_lit : Plan.cexpr -> bool = function CLit k -> k <> 0 | _ -> false

let rec c_expr names (e : Plan.cexpr) =
  match e with
  | CLit k -> Printf.sprintf "INT64_C(%d)" k
  | CSlot i -> names.(i)
  | CUn (Neg, a) -> Printf.sprintf "(-%s)" (c_expr names a)
  | CUn (Not, a) -> Printf.sprintf "(!%s)" (c_expr names a)
  | CBin (((Div | Mod) as op), a, b) when not (nonzero_lit b) ->
    Printf.sprintf "beast_%s(%s, %s)"
      (if op = Div then "div" else "mod")
      (c_expr names a) (c_expr names b)
  | CBin (op, a, b) ->
    Printf.sprintf "(%s %s %s)" (c_expr names a) (Expr.binop_symbol op)
      (c_expr names b)
  | CIf (c, t, f) ->
    Printf.sprintf "(%s ? %s : %s)" (c_expr names c) (c_expr names t)
      (c_expr names f)
  | CCall (Min, [ a; b ]) ->
    Printf.sprintf "beast_min(%s, %s)" (c_expr names a) (c_expr names b)
  | CCall (Max, [ a; b ]) ->
    Printf.sprintf "beast_max(%s, %s)" (c_expr names a) (c_expr names b)
  | CCall (Abs, [ a ]) -> Printf.sprintf "beast_abs(%s)" (c_expr names a)
  | CCall (Ceil_div, [ a; b ]) ->
    Printf.sprintf "beast_ceil_div(%s, %s)" (c_expr names a) (c_expr names b)
  | CCall _ -> unsupported "malformed builtin call"

let zero_step_exit = 3

let div_zero_exit = 4

(* Helpers every program carries. The two exits are cold and noreturn,
   so their checks stay off the hot path: without the attribute gcc 12
   -O2 laid the GEMM-120 nest out ~30% slower. A range whose step
   evaluates to 0 names its loop (by its position in the plan's loop
   order); a division by zero leaves with a status of its own. The
   checks of a literal divisor fold away once the helpers inline. *)
let helpers =
  Printf.sprintf
    {|static inline int64_t beast_min(int64_t a, int64_t b) { return a < b ? a : b; }
static inline int64_t beast_max(int64_t a, int64_t b) { return a > b ? a : b; }
static inline int64_t beast_abs(int64_t a) { return a < 0 ? -a : a; }

#if defined(__GNUC__)
#define BEAST_COLD __attribute__((noreturn, cold))
#else
#define BEAST_COLD
#endif

BEAST_COLD static void beast_zero_step(int loop) {
  printf("zero-step %%d\n", loop);
  fflush(stdout);
  _Exit(%d);
}

BEAST_COLD static void beast_div_zero(void) { _Exit(%d); }

static inline int64_t beast_div(int64_t a, int64_t b) {
  if (b == 0) beast_div_zero();
  return a / b;
}
static inline int64_t beast_mod(int64_t a, int64_t b) {
  if (b == 0) beast_div_zero();
  return a %% b;
}
static inline int64_t beast_ceil_div(int64_t a, int64_t b) {
  return beast_div(a + b - 1, b);
}

/* The twin of Plan.trip_count: unsigned arithmetic keeps it exact for
   any int64 operands. */
static inline uint64_t beast_trip(int64_t start, int64_t stop, int64_t step) {
  if (step > 0)
    return start < stop
      ? ((uint64_t)stop - (uint64_t)start - 1) / (uint64_t)step + 1 : 0;
  return start > stop
    ? ((uint64_t)start - (uint64_t)stop - 1) / (0 - (uint64_t)step) + 1 : 0;
}

|}
    zero_step_exit div_zero_exit

(* The C twin of [Plan.solve], emitted only into programs with a solved
   loop. The guards are the OCaml ones with 63-bit bounds, so both
   languages solve the same entries and test every value of the same
   others. *)
let solve_helper =
  {|#define BEAST_MAX63 INT64_C(4611686018427387903)
#define BEAST_OUT63(x) ((x) < -BEAST_MAX63 || (x) > BEAST_MAX63)

/* -1: test every value; otherwise how many of the trip's values pass
   "m * x != t" (0, or 1 with the value in *only). Mirrors Plan.solve. */
static inline int beast_solve(int64_t start, int64_t step, uint64_t trip,
                              int64_t m, int64_t t, int64_t *only) {
  if (trip == 0) return 0;
  if (trip >= (uint64_t)BEAST_MAX63) return -1;
  int64_t last = (int64_t)((uint64_t)start + (trip - 1) * (uint64_t)step);
  if (BEAST_OUT63(start) || BEAST_OUT63(step) || BEAST_OUT63(last)
      || BEAST_OUT63(m) || BEAST_OUT63(t))
    return -1;
  if (m == 0) return t == 0 ? -1 : 0;
  int64_t lo = beast_min(start, last), hi = beast_max(start, last);
  if (beast_max(-lo, hi) > BEAST_MAX63 / beast_abs(m)
      || (lo < 0 && hi > BEAST_MAX63 + lo))
    return -1;
  if (t % m != 0) return 0;
  int64_t x = t / m;
  if (x < lo || x > hi || (x - start) % step != 0) return 0;
  *only = x;
  return 1;
}

|}

(* The C twin of [Plan.pair_window], emitted only into programs with a
   solved pair, with the same 63-bit guards as [solve_helper]. *)
let pair_window_helper =
  {|/* 1 when the pair's guards hold: then only the outer positions
   [*lo, *hi) can pass "x * y != t" for some inner value, and among
   them only the divisors of t. 0: test every value. Mirrors
   Plan.pair_window. */
static inline int beast_pair_window(int64_t start, int64_t step, uint64_t trip,
                                    int64_t ystart, int64_t ystep, uint64_t ytrip,
                                    int64_t t, uint64_t *lo, uint64_t *hi) {
  *lo = 0;
  *hi = 0;
  if (start < 1 || step < 1 || ystart < 1 || ystep < 1 || t < 1) return 0;
  if (BEAST_OUT63(start) || BEAST_OUT63(step) || BEAST_OUT63(ystart)
      || BEAST_OUT63(ystep) || BEAST_OUT63(t))
    return 0;
  if (trip == 0 || ytrip == 0) return 1;
  int64_t last = (int64_t)((uint64_t)start + (trip - 1) * (uint64_t)step);
  int64_t ylast = (int64_t)((uint64_t)ystart + (ytrip - 1) * (uint64_t)ystep);
  if (BEAST_OUT63(last) || BEAST_OUT63(ylast) || last > BEAST_MAX63 / ylast)
    return 0;
  int64_t wlo = beast_max(start, (t - 1) / ylast + 1);
  int64_t whi = beast_min(last, t / ystart);
  if (wlo <= whi) {
    *lo = wlo == start ? 0 : (uint64_t)((wlo - start - 1) / step + 1);
    *hi = (uint64_t)((whi - start) / step + 1);
  }
  return 1;
}

|}

let value_tables (plan : Plan.t) =
  let tables = ref [] in
  let rec scan steps =
    List.iter
      (fun (step : Plan.step) ->
        match step with
        | Plan.Derive { d_compute = CF _; d_name; _ } ->
          unsupported "derived variable %s has an opaque OCaml body" d_name
        | Plan.Check { c_compute = CF _; c_name; _ } ->
          unsupported "constraint %s has an opaque OCaml body" c_name
        | Plan.Loop { l_iter = CDyn _; l_var; _ } ->
          unsupported "iterator %s depends on other iterators through a closure"
            l_var
        | Plan.Loop { l_iter = CValues vs; l_body; _ } ->
          tables := (List.length !tables, vs) :: !tables;
          scan l_body
        | Plan.Loop { l_body; _ } -> scan l_body
        | Plan.Derive _ | Plan.Check _ | Plan.Yield | Plan.Static_prune _ -> ())
      steps
  in
  scan plan.Plan.steps;
  List.rev !tables

let generate ?(threads = 1) ?(emit_survivors = false) (plan : Plan.t) =
  try
    if threads < 1 then unsupported "threads must be >= 1";
    let names = var_names plan in
    let loop_position var =
      let rec go i = function
        | [] -> unsupported "loop %s is not in the loop order" var
        | v :: rest -> if v = var then i else go (i + 1) rest
      in
      go 0 plan.Plan.iter_order
    in
    let buf = Buffer.create 4096 in
    let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
    let n_constraints = Array.length plan.Plan.constraint_info in
    let tables = value_tables plan in
    let rec any found steps =
      List.exists
        (fun (step : Plan.step) ->
          match step with
          | Plan.Loop { l_slot; l_iter; l_body; _ } ->
            Option.is_some (found ~slot:l_slot l_iter l_body) || any found l_body
          | Plan.Derive _ | Plan.Check _ | Plan.Yield | Plan.Static_prune _ ->
            false)
        steps
    in
    add "/* Generated by beast from search space %s.\n" plan.Plan.space_name;
    add "   Settings:";
    List.iter
      (fun (n, v) -> add " %s=%s" n (Value.to_string v))
      plan.Plan.settings;
    add " */\n";
    add "#include <stdio.h>\n#include <stdlib.h>\n";
    add "#include <stdint.h>\n#include <inttypes.h>\n";
    if threads > 1 then add "#include <pthread.h>\n";
    add "\n%s" helpers;
    if any Plan.solved_check plan.Plan.steps then add "%s" solve_helper;
    if any Plan.solved_pair plan.Plan.steps then add "%s" pair_window_helper;
    add "#define BEAST_N_CONSTRAINTS %d\n\n" n_constraints;
    List.iter
      (fun (id, vs) ->
        if Array.length vs = 0 then
          add "/* beast_values_%d is empty */\n" id
        else begin
          add "static const int64_t beast_values_%d[%d] = {" id (Array.length vs);
          Array.iteri
            (fun i v -> add "%sINT64_C(%d)" (if i = 0 then " " else ", ") v)
            vs;
          add " };\n"
        end)
      tables;
    add "\n";
    (* With several threads, each claims the next position of the outer
       loop from one counter until the counter passes the trip count, so
       an uneven nest still keeps every thread busy. One counter serves
       because the canonical nest (see Plan) has one outermost loop. *)
    if threads > 1 then begin
      add "static uint64_t beast_next;\n";
      add
        "#define BEAST_CLAIM() __atomic_fetch_add(&beast_next, 1, __ATOMIC_RELAXED)\n\n"
    end;
    add
      "static int64_t beast_sweep(int64_t worker, int64_t *prune_counts,\n";
    add "                           int64_t *loop_iterations) {\n";
    add "  int64_t survivors = 0;\n";
    Array.iter (fun n -> add "  int64_t %s = 0;\n" n) names;
    Array.iter (fun n -> add "  (void)%s;\n" n) names;
    add "  (void)worker;\n";
    let indent d = String.make (2 * (d + 1)) ' ' in
    let table_counter = ref 0 in
    let rec emit_steps depth steps =
      List.iter
        (fun (step : Plan.step) ->
          match step with
          | Plan.Yield ->
            (* A yield at depth 0 means the plan has no loops: the whole
               space is one point, which worker 0 alone counts. *)
            let ind =
              if depth = 0 then begin
                add "%sif (worker == 0) {\n" (indent depth);
                indent (depth + 1)
              end
              else indent depth
            in
            add "%ssurvivors++;\n" ind;
            if emit_survivors then begin
              add "%sprintf(\"hit" ind;
              List.iter (fun _ -> add " %%\" PRId64 \"") plan.Plan.iter_order;
              add "\\n\"";
              Array.iter (fun s -> add ", %s" names.(s)) plan.Plan.iter_slots;
              add ");\n"
            end;
            if depth = 0 then add "%s}\n" (indent depth)
          | Plan.Derive { d_slot; d_compute = CE e; _ } ->
            add "%s%s = %s;  /* %s */\n" (indent depth) names.(d_slot)
              (c_expr names e)
              plan.Plan.slot_names.(d_slot)
          | Plan.Derive { d_compute = CF _; _ } -> assert false
          | Plan.Check { c_index; c_compute = CE e; c_name; _ } ->
            if depth = 0 then
              (* Depth-0 steps execute in every worker (the bounds of the
                 outer loop may need them), but their statistics describe
                 the whole space once: only worker 0 counts the firing, so
                 the per-worker totals sum to the sequential ones. *)
              add
                "%sif (%s) { if (worker == 0) prune_counts[%d]++; goto beast_done; }  /* %s */\n"
                (indent depth) (c_expr names e) c_index c_name
            else
              add "%sif (%s) { prune_counts[%d]++; continue; }  /* %s */\n"
                (indent depth) (c_expr names e) c_index c_name
          | Plan.Check { c_compute = CF _; _ } -> assert false
          | Plan.Static_prune { sp_var; sp_dead; _ } ->
            (* Statistics-only replay of propagation-removed values. An
               outer-loop prune sits before the claimed loop, where every
               worker passes, so only worker 0 counts it; deeper prunes
               run once per enclosing-body entry, which belongs to the
               worker that claimed it. *)
            let ind = indent depth in
            let n = Array.length sp_dead in
            let counts = Plan.static_prune_counts sp_dead in
            if depth = 0 then
              add "%sif (worker == 0) {  /* static prune %s */\n" ind
                (sanitize sp_var)
            else add "%s{  /* static prune %s */\n" ind (sanitize sp_var);
            add "%s  *loop_iterations += INT64_C(%d);\n" ind n;
            Array.iter
              (fun (c, m) ->
                add "%s  prune_counts[%d] += INT64_C(%d);\n" ind c m)
              counts;
            add "%s}\n" ind
          | Plan.Loop { l_slot; l_iter; l_body; l_var } -> (
            let ind = indent depth in
            let v = names.(l_slot) in
            (* The outer loop of a multithreaded program visits the
               positions its worker claims, in any order. *)
            let claimed = depth = 0 && threads > 1 in
            match l_iter with
            | Plan.CRange (a, b, c) ->
              let solved = Plan.solved_check ~slot:l_slot l_iter l_body in
              (* A claimed loop visits its positions in any order, so it
                 keeps the per-value solve. *)
              let pair =
                if claimed then None
                else Plan.solved_pair ~slot:l_slot l_iter l_body
              in
              let bound =
                if solved = None && pair = None then "const int64_t"
                else "int64_t"
              in
              add "%s{  /* loop %s */\n" ind l_var;
              add "%s  %s start_%d = %s;\n" ind bound depth (c_expr names a);
              add "%s  %s stop_%d = %s;\n" ind bound depth (c_expr names b);
              add "%s  const int64_t step_%d = %s;\n" ind depth (c_expr names c);
              (match c with
              | CLit k when k <> 0 -> ()
              | _ ->
                add "%s  if (step_%d == 0) beast_zero_step(%d);\n" ind depth
                  (loop_position l_var));
              Option.iter
                (fun (sv : Plan.solved) ->
                  (* Narrow the loop to the values that pass: none, or
                     the one, which still runs its (passing) check. The
                     others are charged in bulk, for the outer loop by
                     worker 0 alone. m and t are evaluated only when the
                     loop has values, as unsolved. *)
                  let c_name, _ = plan.Plan.constraint_info.(sv.sv_index) in
                  add "%s  {  /* solved %s */\n" ind c_name;
                  add
                    "%s    const uint64_t trip = beast_trip(start_%d, stop_%d, step_%d);\n"
                    ind depth depth depth;
                  add "%s    int64_t only = 0;\n" ind;
                  add
                    "%s    const int pass = trip > 0 ? beast_solve(start_%d, step_%d, trip, %s, %s, &only) : 0;\n"
                    ind depth depth
                    (c_expr names sv.sv_coef)
                    (c_expr names sv.sv_target);
                  add "%s    if (pass >= 0) {\n" ind;
                  let charge = if depth = 0 then "if (worker == 0) " else "" in
                  add "%s      %s*loop_iterations += (int64_t)trip - pass;\n"
                    ind charge;
                  add "%s      %sprune_counts[%d] += (int64_t)trip - pass;\n"
                    ind charge sv.sv_index;
                  add "%s      start_%d = only;\n" ind depth;
                  add
                    "%s      stop_%d = pass == 0 ? only : step_%d > 0 ? only + 1 : only - 1;\n"
                    ind depth depth;
                  add "%s    }\n" ind;
                  add "%s  }\n" ind)
                solved;
              Option.iter
                (fun (pr : Plan.pair) ->
                  (* Narrow the loop to the window; the positions
                     outside it are charged in bulk, each as its own
                     entry plus the inner trip in entries and firings.
                     The inner bounds and t are evaluated only when the
                     loop has values, as unwindowed. *)
                  let c_index = pr.pr_solved.sv_index in
                  let ya, yb, yc = pr.pr_range in
                  add "%s  int window_%d = 0;\n" ind depth;
                  add "%s  int64_t window_t_%d = 0, window_ny_%d = 0;\n" ind depth
                    depth;
                  add "%s  {  /* window %s */\n" ind
                    (fst plan.Plan.constraint_info.(c_index));
                  add
                    "%s    const uint64_t trip = beast_trip(start_%d, stop_%d, step_%d);\n"
                    ind depth depth depth;
                  add "%s    if (trip > 0) {\n" ind;
                  add "%s      const int64_t ystart = %s;\n" ind (c_expr names ya);
                  add "%s      const int64_t ystop = %s;\n" ind (c_expr names yb);
                  add "%s      const int64_t ystep = %s;\n" ind (c_expr names yc);
                  (match yc with
                  | CLit k when k <> 0 -> ()
                  | _ ->
                    add "%s      if (ystep == 0) beast_zero_step(%d);\n" ind
                      (loop_position pr.pr_var));
                  add
                    "%s      const uint64_t ytrip = beast_trip(ystart, ystop, ystep);\n"
                    ind;
                  add "%s      uint64_t lo, hi;\n" ind;
                  add "%s      window_t_%d = %s;\n" ind depth
                    (c_expr names pr.pr_solved.sv_target);
                  add
                    "%s      window_%d = beast_pair_window(start_%d, step_%d, trip, ystart, ystep, ytrip, window_t_%d, &lo, &hi);\n"
                    ind depth depth depth depth;
                  add "%s      if (window_%d) {\n" ind depth;
                  add "%s        const int64_t skipped = (int64_t)(trip - (hi - lo));\n"
                    ind;
                  add "%s        window_ny_%d = (int64_t)ytrip;\n" ind depth;
                  add
                    "%s        *loop_iterations += skipped * (1 + window_ny_%d);\n"
                    ind depth;
                  add "%s        prune_counts[%d] += skipped * window_ny_%d;\n" ind
                    c_index depth;
                  add "%s        stop_%d = start_%d + (int64_t)hi * step_%d;\n" ind
                    depth depth depth;
                  add "%s        start_%d += (int64_t)lo * step_%d;\n" ind depth
                    depth;
                  add "%s      }\n" ind;
                  add "%s    }\n" ind;
                  add "%s  }\n" ind)
                pair;
              if claimed then begin
                add
                  "%s  const uint64_t trip_%d = beast_trip(start_%d, stop_%d, step_%d);\n"
                  ind depth depth depth depth;
                add
                  "%s  for (uint64_t k_%d = BEAST_CLAIM(); k_%d < trip_%d; k_%d = BEAST_CLAIM()) {\n"
                  ind depth depth depth depth;
                add
                  "%s    %s = (int64_t)((uint64_t)start_%d + k_%d * (uint64_t)step_%d);\n"
                  ind v depth depth depth
              end
              else
                add
                  "%s  for (%s = start_%d; step_%d > 0 ? %s < stop_%d : %s > stop_%d; %s += step_%d) {\n"
                  ind v depth depth v depth v depth v depth;
              add "%s    (*loop_iterations)++;\n" ind;
              Option.iter
                (fun (pr : Plan.pair) ->
                  let c_index = pr.pr_solved.sv_index in
                  add
                    "%s    if (window_%d && window_t_%d %% %s != 0) { *loop_iterations += window_ny_%d; prune_counts[%d] += window_ny_%d; continue; }\n"
                    ind depth depth v depth c_index depth)
                pair;
              emit_steps (depth + 2) l_body;
              add "%s  }\n" ind;
              add "%s}\n" ind
            | Plan.CValues vs ->
              let id = !table_counter in
              incr table_counter;
              if Array.length vs = 0 then
                add "%s/* loop %s over an empty iterator: no points */\n" ind
                  l_var
              else begin
                add "%s{  /* loop %s */\n" ind l_var;
                if claimed then
                  add
                    "%s  for (uint64_t idx_%d = BEAST_CLAIM(); idx_%d < %d; idx_%d = BEAST_CLAIM()) {\n"
                    ind depth depth (Array.length vs) depth
                else
                  add "%s  for (int64_t idx_%d = 0; idx_%d < %d; idx_%d++) {\n"
                    ind depth depth (Array.length vs) depth;
                add "%s    %s = beast_values_%d[idx_%d];\n" ind v id depth;
                add "%s    (*loop_iterations)++;\n" ind;
                emit_steps (depth + 2) l_body;
                add "%s  }\n" ind;
                add "%s}\n" ind
              end
            | Plan.CDyn _ -> assert false))
        steps
    in
    emit_steps 0 plan.Plan.steps;
    add "  goto beast_done;\n";
    add "beast_done:\n";
    add "  return survivors;\n";
    add "}\n\n";
    if threads > 1 then begin
      add "typedef struct {\n";
      add "  int64_t worker, survivors, iterations;\n";
      add "  int64_t prune_counts[BEAST_N_CONSTRAINTS > 0 ? BEAST_N_CONSTRAINTS : 1];\n";
      add "} beast_task;\n\n";
      add "static void *beast_thread(void *arg) {\n";
      add "  beast_task *t = (beast_task *)arg;\n";
      add
        "  t->survivors = beast_sweep(t->worker, t->prune_counts, &t->iterations);\n";
      add "  return NULL;\n";
      add "}\n\n"
    end;
    add "int main(void) {\n";
    add "  int64_t survivors = 0, iterations = 0;\n";
    add "  int64_t prune_counts[BEAST_N_CONSTRAINTS > 0 ? BEAST_N_CONSTRAINTS : 1] = { 0 };\n";
    if threads > 1 then begin
      (* main is worker 0. A thread that cannot be created leaves its
         claims to the workers that run. *)
      add "  enum { T = %d };\n" threads;
      add "  static beast_task tasks[T];\n";
      add "  pthread_t tids[T];\n";
      add "  int started = 1;\n";
      add "  for (int t = 0; t < T; t++) tasks[t].worker = t;\n";
      add
        "  while (started < T\n\
        \         && pthread_create(&tids[started], NULL, beast_thread, &tasks[started]) == 0)\n";
      add "    started++;\n";
      add "  beast_thread(&tasks[0]);\n";
      add "  for (int t = 0; t < started; t++) {\n";
      add "    if (t > 0) pthread_join(tids[t], NULL);\n";
      add "    survivors += tasks[t].survivors;\n";
      add "    iterations += tasks[t].iterations;\n";
      add
        "    for (int c = 0; c < BEAST_N_CONSTRAINTS; c++) prune_counts[c] += tasks[t].prune_counts[c];\n";
      add "  }\n"
    end
    else add "  survivors = beast_sweep(0, prune_counts, &iterations);\n";
    add "  printf(\"survivors %%\" PRId64 \"\\n\", survivors);\n";
    add "  printf(\"iterations %%\" PRId64 \"\\n\", iterations);\n";
    Array.iteri
      (fun i (n, _) ->
        add "  printf(\"pruned %s %%\" PRId64 \"\\n\", prune_counts[%d]);\n"
          (sanitize n) i)
      plan.Plan.constraint_info;
    add "  return 0;\n";
    add "}\n";
    Ok (Buffer.contents buf)
  with Error e -> Result.Error e

let generate_exn ?threads ?emit_survivors plan =
  match generate ?threads ?emit_survivors plan with
  | Ok s -> s
  | Error e -> raise (Error e)
