open Beast_core

let plan_of sp = Plan.make_exn sp

let test_loop_order_respects_deps () =
  let p = plan_of (Support.triangle_space ()) in
  Alcotest.(check (list string)) "x before y" [ "x"; "y" ] p.Plan.iter_order

let test_hoisting_depth () =
  (* In the triangle space, s and both constraints depend on x and y, so
     they sit at depth 2 — directly inside the y loop, before nothing
     deeper. With an extra constraint on x only, that constraint must sit
     at depth 1 (between the x and y loops). *)
  let open Expr.Infix in
  let sp = Support.triangle_space () in
  Space.constrain sp "x_only" (Expr.var "x" =: Expr.int 3);
  let p = plan_of sp in
  let rec find_depth steps depth name =
    List.fold_left
      (fun acc step ->
        match acc with
        | Some _ -> acc
        | None -> (
          match (step : Plan.step) with
          | Check { c_name; _ } when c_name = name -> Some depth
          | Loop { l_body; _ } -> find_depth l_body (depth + 1) name
          | _ -> None))
      None steps
  in
  Alcotest.(check (option int)) "x_only at depth 1" (Some 1)
    (find_depth p.Plan.steps 0 "x_only");
  Alcotest.(check (option int)) "odd_sum at depth 2" (Some 2)
    (find_depth p.Plan.steps 0 "odd_sum")

let test_no_hoisting () =
  let open Expr.Infix in
  let sp = Support.triangle_space () in
  Space.constrain sp "x_only" (Expr.var "x" =: Expr.int 3);
  let p = Plan.make_exn ~hoist:false sp in
  let rec innermost steps =
    List.fold_left
      (fun acc step ->
        match (step : Plan.step) with
        | Plan.Loop { l_body; _ } -> innermost l_body
        | Plan.Check { c_name; _ } -> c_name :: acc
        | _ -> acc)
      []
    steps
  in
  Alcotest.(check bool) "x_only forced innermost" true
    (List.mem "x_only" (innermost p.Plan.steps))

let test_settings_folded () =
  (* After planning, no expression mentions a setting: the triangle space
     bound n=8, so the x loop is range(0, 8). *)
  let p = plan_of (Support.triangle_space ()) in
  match p.Plan.steps with
  | Plan.Loop { l_iter = Plan.CRange (Plan.CLit 0, Plan.CLit 8, Plan.CLit 1); _ }
    :: _ ->
    ()
  | _ -> Alcotest.failf "unexpected plan head:@\n%a" Plan.pp p

let test_static_closure_tabulated () =
  (* A closure iterator depending only on settings becomes a CValues
     table — the rule that lets the C generator handle it. *)
  let sp = Space.create () in
  Space.setting_i sp "k" 3;
  Space.iterator sp "x"
    (Iter.closure ~deps:[ "k" ] (fun env ->
         let k = Value.to_int (env "k") in
         List.to_seq (List.init k (fun i -> Value.Int (i * i)))));
  let p = plan_of sp in
  match p.Plan.steps with
  | Plan.Loop { l_iter = Plan.CValues [| 0; 1; 4 |]; _ } :: _ -> ()
  | _ -> Alcotest.failf "closure not tabulated:@\n%a" Plan.pp p

let test_dynamic_closure_stays_dynamic () =
  let sp = Support.mixed_space () in
  let p = plan_of sp in
  let rec has_dyn steps =
    List.exists
      (fun (step : Plan.step) ->
        match step with
        | Plan.Loop { l_iter = Plan.CDyn _; _ } -> true
        | Plan.Loop { l_body; _ } -> has_dyn l_body
        | _ -> false)
      steps
  in
  Alcotest.(check bool) "b stays dynamic" true (has_dyn p.Plan.steps)

let test_order_override () =
  let sp = Support.triangle_space () in
  (* y depends on x, so ordering y first must fail... *)
  (match Plan.make ~order:[ "y"; "x" ] sp with
  | Error (Plan.Unsupported _) -> ()
  | Error e -> Alcotest.failf "wrong error: %a" Plan.pp_error e
  | Ok _ -> Alcotest.fail "invalid order accepted");
  (* ...while the valid order is accepted. *)
  match Plan.make ~order:[ "x"; "y" ] sp with
  | Ok p -> Alcotest.(check (list string)) "order kept" [ "x"; "y" ] p.Plan.iter_order
  | Error e -> Alcotest.failf "valid order rejected: %a" Plan.pp_error e

let test_order_override_not_permutation () =
  let sp = Support.triangle_space () in
  match Plan.make ~order:[ "x" ] sp with
  | Error (Plan.Unsupported _) -> ()
  | _ -> Alcotest.fail "non-permutation accepted"

let test_independent_iterators_interchangeable () =
  (* Within a level set, loops may be interchanged (Section X-B). *)
  let sp = Space.create () in
  Space.iterator sp "a" (Iter.range_i 0 3);
  Space.iterator sp "b" (Iter.range_i 0 4);
  let p1 = Plan.make_exn ~order:[ "a"; "b" ] sp in
  let p2 = Plan.make_exn ~order:[ "b"; "a" ] sp in
  let s1 = Engine_staged.run p1 and s2 = Engine_staged.run p2 in
  Alcotest.(check int) "same survivors" s1.Engine.survivors s2.Engine.survivors;
  Alcotest.(check int) "12 points" 12 s1.Engine.survivors

let test_unsupported_float () =
  let sp = Space.create () in
  Space.iterator sp "x" (Iter.values [ Value.Float 1.5 ]);
  match Plan.make sp with
  | Error (Plan.Unsupported _) -> ()
  | _ -> Alcotest.fail "float iterator accepted in enumeration path"

let test_slot_names () =
  let p = plan_of (Support.triangle_space ()) in
  Alcotest.(check int) "three slots" 3 p.Plan.n_slots;
  Alcotest.(check int) "x slot" 0 (Plan.slot_of p "x");
  Alcotest.(check int) "y slot" 1 (Plan.slot_of p "y");
  Alcotest.(check int) "s slot" 2 (Plan.slot_of p "s");
  Alcotest.check_raises "constraints have no slot" Not_found (fun () ->
      ignore (Plan.slot_of p "odd_sum"))

let test_lookup_of_slots () =
  let p = plan_of (Support.triangle_space ()) in
  let slots = [| 4; 5; 9 |] in
  let lookup = Plan.lookup_of_slots p slots in
  Alcotest.(check int) "iterator" 4 (Value.to_int (lookup "x"));
  Alcotest.(check int) "derived" 9 (Value.to_int (lookup "s"));
  Alcotest.(check int) "setting" 8 (Value.to_int (lookup "n"))

let test_eval_cexpr () =
  let slots = [| 7; 3 |] in
  let e =
    Plan.CBin
      ( Expr.Add,
        Plan.CSlot 0,
        Plan.CCall (Expr.Min, [ Plan.CSlot 1; Plan.CLit 10 ]) )
  in
  Alcotest.(check int) "7 + min(3,10)" 10 (Plan.eval_cexpr slots e);
  Alcotest.(check (list int)) "slots used" [ 0; 1 ] (Plan.cexpr_slots e)

(* Differential test of the specialising compiler against the reference
   evaluator. Expressions cover every constructor, with slot and literal
   leaves (so every fused shape and every foldable subtree occurs),
   negative and near-[max_int] values, and zero divisors. *)

let diff_binops =
  Expr.[| Add; Sub; Mul; Div; Mod; Eq; Ne; Lt; Le; Gt; Ge; And; Or |]

let diff_lits = [| 0; 1; -1; 2; -3; 7; max_int; min_int; max_int - 1; min_int + 1 |]

let diff_slot_states =
  [
    [| 0; 1; -1; 7 |];
    [| max_int; min_int; 0; -3 |];
    [| 2; 2; max_int - 1; min_int + 1 |];
    [| -7; 3; 1; 0 |];
  ]

let gen_cexpr st =
  let pick a = a.(Random.State.int st (Array.length a)) in
  let leaf () =
    if Random.State.bool st then Plan.CSlot (Random.State.int st 4)
    else Plan.CLit (pick diff_lits)
  in
  let rec go depth : Plan.cexpr =
    if depth = 0 || Random.State.int st 5 = 0 then leaf ()
    else
      let sub () = go (depth - 1) in
      match Random.State.int st 11 with
      | 0 -> CUn (Expr.Neg, sub ())
      | 1 -> CUn (Expr.Not, sub ())
      | 2 | 3 | 4 | 5 -> CBin (pick diff_binops, sub (), sub ())
      | 6 -> CIf (sub (), sub (), sub ())
      | 7 -> CCall (Expr.Min, [ sub (); sub () ])
      | 8 -> CCall (Expr.Max, [ sub (); sub () ])
      | 9 -> CCall (Expr.Abs, [ sub () ])
      | _ -> CCall (Expr.Ceil_div, [ sub (); sub () ])
  in
  go (1 + Random.State.int st 4)

let outcome f =
  match f () with v -> Ok v | exception e -> Error (Printexc.to_string e)

let test_compiler_matches_eval () =
  let st = Random.State.make [| 20160523 |] in
  let raised = ref 0 and shapes = Hashtbl.create 32 in
  let rec note : Plan.cexpr -> unit = function
    | CLit _ -> Hashtbl.replace shapes "lit" ()
    | CSlot _ -> Hashtbl.replace shapes "slot" ()
    | CUn (op, a) ->
      Hashtbl.replace shapes (if op = Expr.Neg then "neg" else "not") ();
      note a
    | CBin (op, a, b) ->
      Hashtbl.replace shapes (Expr.binop_symbol op) ();
      note a;
      note b
    | CIf (c, t, f) ->
      Hashtbl.replace shapes "if" ();
      List.iter note [ c; t; f ]
    | CCall (b, args) ->
      Hashtbl.replace shapes (Expr.builtin_name b) ();
      List.iter note args
  in
  for _ = 1 to 3000 do
    let e = gen_cexpr st in
    note e;
    let value = Plan.compile_cexpr e and cond = Plan.compile_cond e in
    List.iter
      (fun s ->
        let expected = outcome (fun () -> Plan.eval_cexpr s e) in
        if Result.is_error expected then incr raised;
        let got = outcome (fun () -> value s)
        and got_cond = outcome (fun () -> cond s) in
        if got <> expected || got_cond <> Result.map (fun v -> v <> 0) expected
        then
          Alcotest.failf "%a on [|%s|]: eval_cexpr %s, compile_cexpr %s, compile_cond %s"
            Plan.pp_cexpr e
            (String.concat "; " (Array.to_list (Array.map string_of_int s)))
            (match expected with Ok v -> string_of_int v | Error x -> x)
            (match got with Ok v -> string_of_int v | Error x -> x)
            (match got_cond with Ok b -> string_of_bool b | Error x -> x))
      diff_slot_states
  done;
  (* 13 operators, 2 unary, [?:], 4 builtins, 2 leaves. *)
  Alcotest.(check int) "every constructor generated" 22 (Hashtbl.length shapes);
  Alcotest.(check bool) "zero divisors exercised" true (!raised > 0)

let outer_values plan =
  (* Outer-loop values actually visited, in visit order. *)
  let seen = ref [] in
  let on_hit lookup =
    let v = Value.to_int (lookup (List.hd plan.Plan.iter_order)) in
    match !seen with
    | x :: _ when x = v -> ()
    | _ -> seen := v :: !seen
  in
  ignore (Engine_staged.run ~on_hit plan);
  List.rev !seen

let test_chunk_outer_partition () =
  (* Chunks must partition survivors and loop iterations for any of_,
     including of_ larger than the outer trip count (empty chunks). *)
  let p = plan_of (Support.triangle_space ()) in
  let full = Engine_staged.run p in
  List.iter
    (fun of_ ->
      let parts =
        List.init of_ (fun index ->
            Engine_staged.run (Plan.chunk_outer p ~index ~of_))
      in
      Alcotest.(check int)
        (Printf.sprintf "survivors, of_=%d" of_)
        full.Engine.survivors
        (List.fold_left (fun acc s -> acc + s.Engine.survivors) 0 parts);
      Alcotest.(check int)
        (Printf.sprintf "iterations, of_=%d" of_)
        full.Engine.loop_iterations
        (List.fold_left (fun acc s -> acc + s.Engine.loop_iterations) 0 parts))
    [ 2; 3; 5; 16 ]

let test_chunk_outer_contiguous () =
  (* Block decomposition, not stride: chunk 0 of 2 over x in 0..9 is
     exactly the first half, in order. *)
  let sp = Space.create () in
  Space.iterator sp "x" (Iter.range_i 0 10);
  let p = Plan.make_exn sp in
  Alcotest.(check (list int)) "chunk 0 of 2" [ 0; 1; 2; 3; 4 ]
    (outer_values (Plan.chunk_outer p ~index:0 ~of_:2));
  Alcotest.(check (list int)) "chunk 1 of 2" [ 5; 6; 7; 8; 9 ]
    (outer_values (Plan.chunk_outer p ~index:1 ~of_:2));
  (* Uneven split: 10 values over 3 chunks -> 3, 4, 3. *)
  Alcotest.(check (list int)) "chunk 1 of 3" [ 3; 4; 5 ]
    (outer_values (Plan.chunk_outer p ~index:1 ~of_:3))

let test_chunk_outer_values_and_dyn () =
  (* Value tables and dynamic closures chunk into contiguous blocks. *)
  let sp = Space.create () in
  Space.iterator sp "x" (Iter.ints [ 3; 1; 4; 1; 5; 9; 2; 6 ]);
  let p = Plan.make_exn sp in
  Alcotest.(check (list int)) "values block" [ 4; 1 ]
    (outer_values (Plan.chunk_outer p ~index:1 ~of_:4));
  let sp = Space.create () in
  Space.iterator sp "x"
    (Iter.filter (fun v -> Value.to_int v mod 2 = 1) (Iter.range_i 0 20));
  Space.iterator sp "y" (Iter.upto (Expr.var "x"));
  let p = Plan.make_exn sp in
  let full = (Engine_staged.run p).Engine.survivors in
  let parts =
    List.init 3 (fun index ->
        (Engine_staged.run (Plan.chunk_outer p ~index ~of_:3)).Engine.survivors)
  in
  Alcotest.(check int) "dyn partition" full (List.fold_left ( + ) 0 parts)

let test_chunk_outer_negative_step () =
  let sp = Space.create () in
  Space.iterator sp "x"
    (Iter.range ~step:(Expr.int (-2)) (Expr.int 9) (Expr.int 0));
  let p = Plan.make_exn sp in
  Alcotest.(check (list int)) "full" [ 9; 7; 5; 3; 1 ] (outer_values p);
  Alcotest.(check (list int)) "chunk 0 of 2" [ 9; 7 ]
    (outer_values (Plan.chunk_outer p ~index:0 ~of_:2));
  Alcotest.(check (list int)) "chunk 1 of 2" [ 5; 3; 1 ]
    (outer_values (Plan.chunk_outer p ~index:1 ~of_:2))

let test_chunk_outer_dependent_bounds () =
  (* Outer bounds reading a depth-0 derived slot exercise the symbolic
     trip-count path. *)
  let sp = Space.create () in
  Space.setting_i sp "n" 11;
  Space.derived sp "m" Expr.Infix.(Expr.var "n" +: Expr.int 2);
  Space.iterator sp "x" (Iter.range (Expr.int 0) (Expr.var "m"));
  let p = Plan.make_exn sp in
  Alcotest.(check (list int)) "chunk 0 of 4" [ 0; 1; 2 ]
    (outer_values (Plan.chunk_outer p ~index:0 ~of_:4));
  Alcotest.(check (list int)) "chunk 3 of 4" [ 9; 10; 11; 12 ]
    (outer_values (Plan.chunk_outer p ~index:3 ~of_:4))

let test_depth0_constraints_mask () =
  let sp = Support.triangle_space () in
  Space.constrain sp "d0" Expr.(Infix.( <: ) (Expr.int 9) (Expr.int 8)) ~cls:Space.Soft;
  let p = Plan.make_exn sp in
  let mask = Plan.depth0_constraints p in
  let by_name name =
    let rec find i = function
      | [] -> Alcotest.fail ("no constraint " ^ name)
      | (n, _) :: _ when n = name -> mask.(i)
      | _ :: rest -> find (i + 1) rest
    in
    find 0 (Array.to_list p.Plan.constraint_info)
  in
  Alcotest.(check bool) "setting-only constraint is depth 0" true (by_name "d0");
  Alcotest.(check bool) "iterator constraint is deeper" false (by_name "odd_sum")

(* Two iterators and a reshape check [a * b != t] the engines solve. *)
let reshape_space () =
  let open Expr.Infix in
  let sp = Space.create ~name:"reshape" () in
  Space.iterator sp "a" (Iter.range_i 1 9);
  Space.iterator sp "b" (Iter.range_i 1 9);
  Space.constrain sp ~cls:Space.Correctness "cant_reshape"
    ((Expr.var "a" *: Expr.var "b") <>: Expr.int 12);
  sp

let contains text sub =
  let n = String.length text and m = String.length sub in
  let rec go i = i + m <= n && (String.sub text i m = sub || go (i + 1)) in
  go 0

let test_pp_smoke () =
  let p = plan_of (Support.triangle_space ()) in
  let s = Format.asprintf "%a" Plan.pp p in
  Alcotest.(check bool) "mentions loops" true (String.length s > 40);
  Alcotest.(check bool) "no check solved" false (contains s "solved");
  Alcotest.(check bool) "no loop windowed" false (contains s "window");
  Alcotest.(check string) "solved pair marked"
    "plan reshape (2 loops, 1 constraints)\n\
     for a (s0) in range(1, 9, 1) [window cant_reshape]:\n\
    \  for b (s1) in range(1, 9, 1):\n\
    \    prune if cant_reshape [correctness, solved]: ((s0 * s1) != 12)\n\
    \    yield\n"
    (Format.asprintf "%a" Plan.pp (plan_of (reshape_space ())))

(* ---- Solved checks ---- *)

(* The values [coef * x <> target] lets through over a range, with the
   engines' wrapping arithmetic. *)
let passing ~start ~step ~trip ~coef ~target =
  List.filter
    (fun x -> coef * x = target)
    (List.init trip (fun k -> start + (k * step)))

let solve ~start ~step ~trip ~coef ~target =
  let only = ref 0 in
  let got = Plan.solve ~start ~step ~trip ~coef ~target ~only in
  (got, !only)

let check_solution ~what ~start ~step ~trip ~coef ~target (got, only) =
  let pass = passing ~start ~step ~trip ~coef ~target in
  let ok =
    match (got : Plan.solution) with
    | Test_each -> false
    | Pass_all -> List.length pass = trip
    | Pass_none -> pass = []
    | Pass_one -> pass = [ only ]
  in
  if not ok then
    Alcotest.failf
      "%s: range(start %d, step %d, %d values), %d * x != %d: wrong answer" what
      start step trip coef target

let test_solve_exhaustive () =
  for start = -6 to 6 do
    for stop = -9 to 9 do
      List.iter
        (fun step ->
          let trip = Plan.trip_count ~start ~stop ~step in
          for coef = -3 to 3 do
            for target = -20 to 20 do
              check_solution ~what:"small" ~start ~step ~trip ~coef ~target
                (solve ~start ~step ~trip ~coef ~target)
            done
          done)
        [ 1; -1; 2; -2; 3; -3 ]
    done
  done

(* Near the int limits the solve must test every value whenever a
   product [coef * x] could wrap (so a wrapped product could equal the
   target), an operand is [min_int], or the span of a range it must
   search overflows; elsewhere it must still be exact. *)
let test_solve_extremes () =
  let wraps coef x =
    let p = coef * x in
    coef <> 0 && (p / coef <> x || p = min_int || (coef = -1 && x = min_int))
  in
  let ranges =
    [
      (max_int - 7, max_int, 1);
      (max_int - 7, max_int, 3);
      (max_int, max_int - 9, -2);
      (min_int, min_int + 5, 1);
      (min_int + 1, min_int + 9, 2);
      (min_int + 9, min_int, -1);
      (-3, max_int, max_int / 2);
      (min_int + 1, max_int, max_int);
      (max_int, min_int, min_int + 1);
      (-(max_int / 2) - 2, max_int / 2 + 3, max_int / 4);
      (0, 4, 1);
      (-2, 3, 2);
    ]
  in
  let coefs =
    [ 0; 1; -1; 2; -3; max_int; min_int; -max_int; max_int / 2; min_int / 2;
      max_int / 3 ]
  in
  List.iter
    (fun (start, stop, step) ->
      let trip = Plan.trip_count ~start ~stop ~step in
      let xs = List.init trip (fun k -> start + (k * step)) in
      let last = start + ((trip - 1) * step) in
      List.iter
        (fun coef ->
          let targets =
            [ 0; 1; -1; 7; max_int; min_int; max_int - 1 ]
            @ List.map (fun x -> coef * x) xs
          in
          List.iter
            (fun target ->
              let got = solve ~start ~step ~trip ~coef ~target in
              let lo = min start last and hi = max start last in
              let must_test =
                trip > 0
                && (List.mem min_int [ start; step; last; coef; target ]
                   || List.exists (wraps coef) xs
                   || (coef <> 0 && hi - lo < 0))
              in
              if must_test then begin
                if fst got <> Plan.Test_each then
                  Alcotest.failf
                    "range(%d, %d, %d), %d * x != %d: solved where it must test"
                    start stop step coef target
              end
              else
                check_solution ~what:"extreme" ~start ~step ~trip ~coef
                  ~target got)
            targets)
        coefs)
    ranges

let loop_b (p : Plan.t) =
  let rec go = function
    | Plan.Loop l :: _ when l.l_var = "b" -> Some (l.l_slot, l.l_iter, l.l_body)
    | Plan.Loop l :: rest -> (
      match go l.l_body with Some _ as r -> r | None -> go rest)
    | _ :: rest -> go rest
    | [] -> None
  in
  Option.get (go p.Plan.steps)

(* Which checks on the inner loop [b] are recognised as solvable. *)
let test_solved_check_shapes () =
  let open Expr.Infix in
  let a = Expr.var "a" and b = Expr.var "b" in
  let recognised ?(derived = []) ?(iter_b = Iter.range_i 1 9) c =
    let sp = Space.create () in
    Space.iterator sp "a" (Iter.range_i 1 9);
    Space.iterator sp "b" iter_b;
    List.iter (fun (n, e) -> Space.derived sp n e) derived;
    Space.constrain sp "c" c;
    let slot, iter, body = loop_b (plan_of sp) in
    Option.is_some (Plan.solved_check ~slot iter body)
  in
  let yes name c = Alcotest.(check bool) name true (recognised c) in
  let no name c = Alcotest.(check bool) name false (recognised c) in
  yes "m * x != t" ((a *: b) <>: Expr.int 12);
  yes "x * m != t" ((b *: a) <>: Expr.int 12);
  yes "t != m * x" (Expr.int 12 <>: (a *: b));
  yes "x != t" (b <>: (a +: Expr.int 1));
  yes "literal 0 coefficient" ((Expr.int 0 *: b) <>: a);
  yes "negative coefficient" ((Expr.int (-2) *: b) <>: (a *: a));
  no "x on both sides" ((a *: b) <>: b);
  no "x squared" ((b *: b) <>: a);
  no "equality" ((a *: b) =: Expr.int 12);
  no "division in target" ((a *: b) <>: (Expr.int 12 /: a));
  no "disjunction" (((a *: b) <>: Expr.int 12) ||: (a =: Expr.int 2));
  Alcotest.(check bool) "over a value list" false
    (recognised ~iter_b:(Iter.ints [ 1; 2; 3 ]) ((a *: b) <>: Expr.int 12));
  Alcotest.(check bool) "after a raise-free derived" true
    (recognised ~derived:[ ("d", b +: Expr.int 1) ] ((a *: b) <>: Expr.int 12));
  Alcotest.(check bool) "after a derived that may raise" false
    (recognised
       ~derived:[ ("d", Expr.int 12 /: b) ]
       ((a *: b) <>: Expr.int 12));
  Alcotest.(check bool) "target bound in the loop" false
    (recognised ~derived:[ ("d", b +: Expr.int 1) ] ((a *: b) <>: Expr.var "d"))

(* ---- Solved pairs ---- *)

(* Bit [k] of [masks.(t - t_lo)]: some [y] passes [x_k * y = t], in the
   engines' wrapping arithmetic, for [t] in [t_lo, t_lo + len). *)
let passing_masks ~t_lo ~len (start, step, trip) (ystart, ystep, ytrip) =
  let masks = Array.make len 0 in
  for k = 0 to trip - 1 do
    let x = start + (k * step) in
    for j = 0 to ytrip - 1 do
      let i = (x * (ystart + (j * ystep))) - t_lo in
      if i >= 0 && i < len then masks.(i) <- masks.(i) lor (1 lsl k)
    done
  done;
  masks

(* [pair_window]'s answer for one entry, checked against [mask] (the
   passing positions): when it holds, no position outside [lo, hi) and
   no non-divisor of [t] passes. Returns whether it held, and the
   window. *)
let check_window ~what (start, step, trip) (ystart, ystep, ytrip) t mask =
  let lo = ref (-1) and hi = ref (-1) in
  let held =
    Plan.pair_window ~start ~step ~trip ~inner_start:ystart ~inner_step:ystep
      ~inner_trip:ytrip ~target:t ~lo ~hi
  in
  let fail why =
    Alcotest.failf
      "%s: x from %d by %d (%d values), y from %d by %d (%d values), t = %d: \
       %s"
      what start step trip ystart ystep ytrip t why
  in
  if held then begin
    if not (0 <= !lo && !lo <= !hi && !hi <= trip) then
      fail (Printf.sprintf "window [%d, %d) out of the trip" !lo !hi);
    for k = 0 to trip - 1 do
      if mask land (1 lsl k) <> 0 then begin
        let x = start + (k * step) in
        if k < !lo || k >= !hi then fail (Printf.sprintf "x = %d passes outside" x);
        if t mod x <> 0 then fail (Printf.sprintf "x = %d passes, not dividing" x)
      end
    done
  end
  else if (!lo, !hi) <> (0, 0) then fail "refused, but the window was set";
  (held, !lo, !hi)

(* Every x and y range within [-3, 12] with steps 1-3, and every t in
   [-5, 40]: the window is sound, it holds exactly when every value
   and t are positive (no product can wrap here), and every branch is
   reached: refused, an empty trip, an empty window, a window starting
   at x's start and one starting past it. *)
let test_pair_window_exhaustive () =
  let ranges =
    List.concat_map
      (fun start ->
        List.concat_map
          (fun stop ->
            List.map
              (fun step -> (start, step, Plan.trip_count ~start ~stop ~step))
              [ 1; 2; 3 ])
          (List.init (14 - start) (fun i -> start + i)))
      (List.init 16 (fun i -> i - 3))
  in
  let t_lo = -5 and len = 46 in
  let refused = ref 0 and empty_trip = ref 0 and empty = ref 0
  and at_start = ref 0 and past_start = ref 0 in
  List.iter
    (fun ((start, _, trip) as x) ->
      List.iter
        (fun ((ystart, _, ytrip) as y) ->
          let masks = passing_masks ~t_lo ~len x y in
          for i = 0 to len - 1 do
            let t = t_lo + i in
            let held, lo, hi = check_window ~what:"small" x y t masks.(i) in
            let expected = start >= 1 && ystart >= 1 && t >= 1 in
            if held <> expected then
              Alcotest.failf "x from %d, y from %d, t = %d: held %b" start ystart
                t held;
            if not held then incr refused
            else if trip = 0 || ytrip = 0 then incr empty_trip
            else if lo = hi then incr empty
            else if lo = 0 then incr at_start
            else incr past_start
          done)
        ranges)
    ranges;
  List.iter
    (fun (what, n) -> if n = 0 then Alcotest.failf "no %s entry" what)
    [
      ("refused", !refused); ("empty-trip", !empty_trip);
      ("empty-window", !empty); ("window-at-start", !at_start);
      ("window-past-start", !past_start);
    ]

(* Near [max_int] the window must refuse whenever a product [x * y]
   could wrap, and stay sound where it holds. *)
let test_pair_window_extremes () =
  let m = max_int in
  let ranges =
    [
      (1, 1, 4); (3, 2, 3); (m / 2, 1, 3); (m / 3, 1, 4); (m - 5, 1, 5);
      (1, m / 2, 2); (m / 4, m / 8, 3); (m / 6, 1, 2); (2, 1, 3);
    ]
  in
  let refused_wrap = ref false and held_big = ref false in
  List.iter
    (fun ((start, step, trip) as x) ->
      List.iter
        (fun ((ystart, ystep, ytrip) as y) ->
          let last = start + ((trip - 1) * step)
          and ylast = ystart + ((ytrip - 1) * ystep) in
          let fits = last <= m / ylast in
          let products =
            List.concat
              (List.init trip (fun k ->
                   List.init ytrip (fun j ->
                       (start + (k * step)) * (ystart + (j * ystep)))))
          in
          List.iter
            (fun t ->
              let mask = (passing_masks ~t_lo:t ~len:1 x y).(0) in
              let held, _, _ = check_window ~what:"extreme" x y t mask in
              if t >= 1 && held <> fits then
                Alcotest.failf "x from %d by %d, y from %d by %d: held %b" start
                  step ystart ystep held;
              if held && last > 1_000_000 then held_big := true;
              if t >= 1 && not fits then refused_wrap := true)
            ([ 1; 7; m; m - 1; -1 ] @ List.filter (fun p -> p >= 1) products))
        ranges)
    ranges;
  Alcotest.(check bool) "refused a product that could wrap" true !refused_wrap;
  Alcotest.(check bool) "held near the limit" true !held_big

(* Which loops [a] over an inner loop [b] are recognised as pairs. *)
let test_solved_pair_shapes () =
  let open Expr.Infix in
  let a = Expr.var "a" and b = Expr.var "b" in
  let recognised ?(derived = []) ?(iter_a = Iter.range_i 1 9)
      ?(iter_b = Iter.range_i 1 9) c =
    let sp = Space.create () in
    Space.iterator sp "a" iter_a;
    Space.iterator sp "b" iter_b;
    List.iter (fun (n, e) -> Space.derived sp n e) derived;
    Space.constrain sp "c" c;
    match (plan_of sp).Plan.steps with
    | [ Plan.Loop { l_slot; l_iter; l_body; _ } ] ->
      Option.is_some (Plan.solved_pair ~slot:l_slot l_iter l_body)
    | _ -> Alcotest.fail "expected one outer loop"
  in
  let yes name c = Alcotest.(check bool) name true (recognised c) in
  let no name c = Alcotest.(check bool) name false (recognised c) in
  yes "x * y != t" ((a *: b) <>: Expr.int 12);
  yes "t != y * x" (Expr.int 12 <>: (b *: a));
  no "coefficient 1" (b <>: Expr.int 12);
  no "literal coefficient" ((Expr.int 2 *: b) <>: Expr.int 12);
  no "target reads x" ((a *: b) <>: (a +: Expr.int 12));
  Alcotest.(check bool) "y's bound reads x" false
    (recognised ~iter_b:(Iter.range (Expr.int 1) a) ((a *: b) <>: Expr.int 12));
  Alcotest.(check bool) "y's step reads x" false
    (recognised
       ~iter_b:(Iter.range ~step:a (Expr.int 1) (Expr.int 9))
       ((a *: b) <>: Expr.int 12));
  Alcotest.(check bool) "a derived between the loops" false
    (recognised ~derived:[ ("d", a +: Expr.int 1) ] ((a *: b) <>: Expr.int 12));
  Alcotest.(check bool) "x over a value list" false
    (recognised ~iter_a:(Iter.ints [ 1; 2; 3 ]) ((a *: b) <>: Expr.int 12));
  Alcotest.(check bool) "y over a value list" false
    (recognised ~iter_b:(Iter.ints [ 1; 2; 3 ]) ((a *: b) <>: Expr.int 12))

let () =
  Alcotest.run "plan"
    [
      ( "structure",
        [
          Alcotest.test_case "loop order" `Quick test_loop_order_respects_deps;
          Alcotest.test_case "hoisting depth" `Quick test_hoisting_depth;
          Alcotest.test_case "no hoisting" `Quick test_no_hoisting;
          Alcotest.test_case "settings folded" `Quick test_settings_folded;
          Alcotest.test_case "static closure tabulated" `Quick
            test_static_closure_tabulated;
          Alcotest.test_case "dynamic closure" `Quick
            test_dynamic_closure_stays_dynamic;
          Alcotest.test_case "slot names" `Quick test_slot_names;
          Alcotest.test_case "pp smoke" `Quick test_pp_smoke;
        ] );
      ( "ordering",
        [
          Alcotest.test_case "order override" `Quick test_order_override;
          Alcotest.test_case "non-permutation rejected" `Quick
            test_order_override_not_permutation;
          Alcotest.test_case "interchange within level" `Quick
            test_independent_iterators_interchangeable;
        ] );
      ( "lowering",
        [
          Alcotest.test_case "float rejected" `Quick test_unsupported_float;
          Alcotest.test_case "lookup_of_slots" `Quick test_lookup_of_slots;
          Alcotest.test_case "eval_cexpr" `Quick test_eval_cexpr;
          Alcotest.test_case "compiler matches eval_cexpr" `Quick
            test_compiler_matches_eval;
        ] );
      ( "solving",
        [
          Alcotest.test_case "solve matches brute force" `Quick
            test_solve_exhaustive;
          Alcotest.test_case "solve near the int limits" `Quick
            test_solve_extremes;
          Alcotest.test_case "solved check shapes" `Quick
            test_solved_check_shapes;
          Alcotest.test_case "pair window matches brute force" `Quick
            test_pair_window_exhaustive;
          Alcotest.test_case "pair window near the int limits" `Quick
            test_pair_window_extremes;
          Alcotest.test_case "solved pair shapes" `Quick test_solved_pair_shapes;
        ] );
      ( "chunking",
        [
          Alcotest.test_case "chunk_outer partitions" `Quick
            test_chunk_outer_partition;
          Alcotest.test_case "chunk_outer contiguous blocks" `Quick
            test_chunk_outer_contiguous;
          Alcotest.test_case "chunk_outer values/dyn" `Quick
            test_chunk_outer_values_and_dyn;
          Alcotest.test_case "chunk_outer negative step" `Quick
            test_chunk_outer_negative_step;
          Alcotest.test_case "chunk_outer dependent bounds" `Quick
            test_chunk_outer_dependent_bounds;
          Alcotest.test_case "depth0 constraint mask" `Quick
            test_depth0_constraints_mask;
        ] );
    ]
