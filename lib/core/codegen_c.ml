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

let rec c_expr names (e : Plan.cexpr) =
  match e with
  | CLit k -> Printf.sprintf "INT64_C(%d)" k
  | CSlot i -> names.(i)
  | CUn (Neg, a) -> Printf.sprintf "(-%s)" (c_expr names a)
  | CUn (Not, a) -> Printf.sprintf "(!%s)" (c_expr names a)
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

(* The C twin of [Plan.trip_count] and [Plan.solve], emitted only into
   programs with a solved loop. Unsigned arithmetic keeps the trip count
   and the last value exact for any int64 operands; the guards are the
   OCaml ones with 63-bit bounds, so both languages solve the same
   entries and test every value of the same others. *)
let solve_helpers =
  {|#define BEAST_MAX63 INT64_C(4611686018427387903)
#define BEAST_OUT63(x) ((x) < -BEAST_MAX63 || (x) > BEAST_MAX63)

static inline uint64_t beast_trip(int64_t start, int64_t stop, int64_t step) {
  if (step > 0)
    return start < stop
      ? ((uint64_t)stop - (uint64_t)start - 1) / (uint64_t)step + 1 : 0;
  return start > stop
    ? ((uint64_t)start - (uint64_t)stop - 1) / (0 - (uint64_t)step) + 1 : 0;
}

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
    (* Collect static value tables first. *)
    let tables = ref [] in
    let n_tables = ref 0 in
    let rec scan_steps steps =
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
            let id = !n_tables in
            incr n_tables;
            tables := (id, vs) :: !tables;
            scan_steps l_body
          | Plan.Loop { l_body; _ } -> scan_steps l_body
          | Plan.Derive _ | Plan.Check _ | Plan.Yield | Plan.Static_prune _ ->
            ())
        steps
    in
    scan_steps plan.Plan.steps;
    let rec any_solved steps =
      List.exists
        (fun (step : Plan.step) ->
          match step with
          | Plan.Loop { l_slot; l_iter; l_body; _ } ->
            Option.is_some (Plan.solved_check ~slot:l_slot l_iter l_body)
            || any_solved l_body
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
    add "\n";
    add "static inline int64_t beast_min(int64_t a, int64_t b) { return a < b ? a : b; }\n";
    add "static inline int64_t beast_max(int64_t a, int64_t b) { return a > b ? a : b; }\n";
    add "static inline int64_t beast_abs(int64_t a) { return a < 0 ? -a : a; }\n";
    add
      "static inline int64_t beast_ceil_div(int64_t a, int64_t b) { return (a + b - 1) / b; }\n\n";
    if any_solved plan.Plan.steps then add "%s" solve_helpers;
    (* A range whose step evaluates to 0 is an error, as in the OCaml
       engines: name the loop (by its position in the plan's loop order)
       and leave with a status of its own. Marked cold so the check stays
       off the hot path: without it gcc 12 -O2 laid the GEMM-120 nest out
       ~30% slower. *)
    add "#if defined(__GNUC__)\n";
    add "__attribute__((noreturn, cold))\n";
    add "#endif\n";
    add "static void beast_zero_step(int loop) {\n";
    add "  printf(\"zero-step %%d\\n\", loop);\n";
    add "  fflush(stdout);\n";
    add "  _Exit(%d);\n" zero_step_exit;
    add "}\n\n";
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
      (List.rev !tables);
    add "\n";
    add
      "static int64_t beast_sweep_slice(int64_t slice_index, int64_t slice_count,\n";
    add
      "                                 int64_t *prune_counts, int64_t *loop_iterations) {\n";
    add "  int64_t survivors = 0;\n";
    Array.iter (fun n -> add "  int64_t %s = 0;\n" n) names;
    Array.iter (fun n -> add "  (void)%s;\n" n) names;
    add "  (void)slice_index; (void)slice_count;\n";
    let indent d = String.make (2 * (d + 1)) ' ' in
    let table_counter = ref 0 in
    let rec emit_steps depth steps =
      List.iter
        (fun (step : Plan.step) ->
          match step with
          | Plan.Yield ->
            (* A yield at depth 0 means the plan has no loops: the whole
               space is one point, which belongs to slice 0 alone (the
               same convention as Plan.slice_outer). *)
            let ind =
              if depth = 0 then begin
                add "%sif (slice_index == 0) {\n" (indent depth);
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
              (* Depth-0 steps execute in every slice (the bounds of the
                 outer loop may need them), but their statistics describe
                 the whole space once: only slice 0 counts the firing, so
                 the per-slice totals sum to the sequential ones. *)
              add
                "%sif (%s) { if (slice_index == 0) prune_counts[%d]++; goto beast_done; }  /* %s */\n"
                (indent depth) (c_expr names e) c_index c_name
            else
              add "%sif (%s) { prune_counts[%d]++; continue; }  /* %s */\n"
                (indent depth) (c_expr names e) c_index c_name
          | Plan.Check { c_compute = CF _; _ } -> assert false
          | Plan.Static_prune { sp_var; sp_dead; _ } ->
            (* Statistics-only replay of propagation-removed values. An
               outer-loop prune sits before the sliced loop and would be
               replayed once per slice, so only slice 0 counts it —
               same convention as depth-0 checks; deeper prunes run once
               per enclosing-body entry, which each slice does for its
               own share of the work. *)
            let ind = indent depth in
            let n = Array.length sp_dead in
            let counts = Plan.static_prune_counts sp_dead in
            if depth = 0 then
              add "%sif (slice_index == 0) {  /* static prune %s */\n" ind
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
            match l_iter with
            | Plan.CRange (a, b, c) ->
              let solved = Plan.solved_check ~slot:l_slot l_iter l_body in
              add "%s{  /* loop %s */\n" ind l_var;
              add "%s  int64_t start_%d = %s;\n" ind depth (c_expr names a);
              add "%s  %sint64_t stop_%d = %s;\n" ind
                (if solved = None then "const " else "")
                depth (c_expr names b);
              add "%s  int64_t step_%d = %s;\n" ind depth (c_expr names c);
              (match c with
              | CLit k when k <> 0 -> ()
              | _ ->
                add "%s  if (step_%d == 0) beast_zero_step(%d);\n" ind depth
                  (loop_position l_var));
              if depth = 0 then begin
                add "%s  start_%d += slice_index * step_%d;\n" ind depth depth;
                add "%s  step_%d *= slice_count;\n" ind depth
              end;
              Option.iter
                (fun (sv : Plan.solved) ->
                  (* Narrow the loop to the values that pass: none, or
                     the one, which still runs its (passing) check. The
                     others are charged in bulk. m and t are evaluated
                     only when the loop has values, as unsolved. *)
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
                  add "%s      *loop_iterations += (int64_t)trip - pass;\n" ind;
                  add "%s      prune_counts[%d] += (int64_t)trip - pass;\n" ind
                    sv.sv_index;
                  add "%s      start_%d = only;\n" ind depth;
                  add
                    "%s      stop_%d = pass == 0 ? only : step_%d > 0 ? only + 1 : only - 1;\n"
                    ind depth depth;
                  add "%s    }\n" ind;
                  add "%s  }\n" ind)
                solved;
              add
                "%s  for (%s = start_%d; step_%d > 0 ? %s < stop_%d : %s > stop_%d; %s += step_%d) {\n"
                ind v depth depth v depth v depth v depth;
              add "%s    (*loop_iterations)++;\n" ind;
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
                let first, step_idx =
                  if depth = 0 then ("slice_index", "slice_count") else ("0", "1")
                in
                add
                  "%s  for (int64_t idx_%d = %s; idx_%d < %d; idx_%d += %s) {\n"
                  ind depth first depth (Array.length vs) depth step_idx;
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
      add "  int64_t index, count, survivors, iterations;\n";
      add "  int64_t prune_counts[BEAST_N_CONSTRAINTS > 0 ? BEAST_N_CONSTRAINTS : 1];\n";
      add "} beast_task;\n\n";
      add "static void *beast_thread(void *arg) {\n";
      add "  beast_task *t = (beast_task *)arg;\n";
      add
        "  t->survivors = beast_sweep_slice(t->index, t->count, t->prune_counts, &t->iterations);\n";
      add "  return NULL;\n";
      add "}\n\n"
    end;
    add "int main(void) {\n";
    if threads > 1 then begin
      add "  enum { T = %d };\n" threads;
      add "  beast_task tasks[T];\n";
      add "  pthread_t tids[T];\n";
      add "  int joined[T];\n";
      add "  for (int t = 0; t < T; t++) {\n";
      add "    tasks[t].index = t; tasks[t].count = T;\n";
      add "    tasks[t].survivors = tasks[t].iterations = 0;\n";
      add
        "    for (int c = 0; c < BEAST_N_CONSTRAINTS; c++) tasks[t].prune_counts[c] = 0;\n";
      (* A thread that cannot be created must not drop its slice: run
         it inline and skip its join. *)
      add
        "    joined[t] =\n\
        \      pthread_create(&tids[t], NULL, beast_thread, &tasks[t]) == 0;\n";
      add "    if (!joined[t]) beast_thread(&tasks[t]);\n";
      add "  }\n";
      add "  int64_t survivors = 0, iterations = 0;\n";
      add "  int64_t prune_counts[BEAST_N_CONSTRAINTS > 0 ? BEAST_N_CONSTRAINTS : 1] = { 0 };\n";
      add "  for (int t = 0; t < T; t++) {\n";
      add "    if (joined[t]) pthread_join(tids[t], NULL);\n";
      add "    survivors += tasks[t].survivors;\n";
      add "    iterations += tasks[t].iterations;\n";
      add
        "    for (int c = 0; c < BEAST_N_CONSTRAINTS; c++) prune_counts[c] += tasks[t].prune_counts[c];\n";
      add "  }\n"
    end
    else begin
      add "  int64_t iterations = 0;\n";
      add "  int64_t prune_counts[BEAST_N_CONSTRAINTS > 0 ? BEAST_N_CONSTRAINTS : 1] = { 0 };\n";
      add "  int64_t survivors = beast_sweep_slice(0, 1, prune_counts, &iterations);\n"
    end;
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
