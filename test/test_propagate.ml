open Beast_core

(* ------------------------------------------------------------------ *)
(* Interval evaluator                                                  *)
(* ------------------------------------------------------------------ *)

let some_iv lo hi = Some { Propagate.lo; hi }

let check_iv msg expected got =
  let pp = function
    | None -> "unknown"
    | Some { Propagate.lo; hi } -> Printf.sprintf "[%d, %d]" lo hi
  in
  Alcotest.(check string) msg (pp expected) (pp got)

let test_interval_arith () =
  let box = [| some_iv 2 5; some_iv (-3) 4; None |] in
  let ev e = Propagate.interval_of_cexpr box e in
  check_iv "add"
    (some_iv (-1) 9)
    (ev (Plan.CBin (Expr.Add, Plan.CSlot 0, Plan.CSlot 1)));
  check_iv "mul"
    (some_iv (-15) 20)
    (ev (Plan.CBin (Expr.Mul, Plan.CSlot 0, Plan.CSlot 1)));
  check_iv "unknown slot poisons"
    None
    (ev (Plan.CBin (Expr.Add, Plan.CSlot 0, Plan.CSlot 2)));
  check_iv "div by interval containing zero"
    None
    (ev (Plan.CBin (Expr.Div, Plan.CSlot 0, Plan.CSlot 1)));
  check_iv "div by positive interval"
    (some_iv 1 2)
    (ev (Plan.CBin (Expr.Div, Plan.CSlot 0, Plan.CLit 2)));
  check_iv "comparison definite"
    (some_iv 1 1)
    (ev (Plan.CBin (Expr.Lt, Plan.CSlot 0, Plan.CLit 6)));
  check_iv "comparison indeterminate"
    (some_iv 0 1)
    (ev (Plan.CBin (Expr.Lt, Plan.CSlot 0, Plan.CLit 4)));
  check_iv "short-circuit and with false left"
    (some_iv 0 0)
    (ev
       (Plan.CBin
          ( Expr.And,
            Plan.CBin (Expr.Gt, Plan.CSlot 0, Plan.CLit 100),
            Plan.CBin (Expr.Div, Plan.CSlot 0, Plan.CSlot 1) )));
  check_iv "min" (some_iv (-3) 4)
    (ev (Plan.CCall (Expr.Min, [ Plan.CSlot 0; Plan.CSlot 1 ])));
  check_iv "abs" (some_iv 0 4)
    (ev (Plan.CCall (Expr.Abs, [ Plan.CSlot 1 ])))

(* ------------------------------------------------------------------ *)
(* The pass on a hand-built space                                      *)
(* ------------------------------------------------------------------ *)

(* x in 0..9 with even(x) required: propagation must fold the parity
   check into the iterator and record the 5 dead values. *)
let parity_space () =
  let open Expr.Infix in
  let sp = Space.create ~name:"parity" () in
  Space.iterator sp "x" (Iter.range_i 0 10);
  Space.constrain sp "odd_x" (Expr.var "x" %: Expr.int 2 =: Expr.int 1);
  Space.iterator sp "y" (Iter.range_i 0 3);
  sp

let test_pass_removes_dead () =
  let plan = Plan.make_exn (parity_space ()) in
  let propagated = Propagate.pass plan in
  Alcotest.(check int) "5 dead values" 5 (Plan.static_pruned propagated);
  let rec outer_iter = function
    | Plan.Loop { l_iter; _ } :: _ -> l_iter
    | _ :: rest -> outer_iter rest
    | [] -> Alcotest.fail "no loop"
  in
  (match outer_iter propagated.Plan.steps with
  | Plan.CRange (Plan.CLit 0, Plan.CLit 10, Plan.CLit 2) -> ()
  | Plan.CValues [| 0; 2; 4; 6; 8 |] -> ()
  | _ -> Alcotest.fail "outer iterator not tightened to the even values");
  (* Idempotent: a second pass finds nothing more. *)
  let again = Propagate.pass propagated in
  Alcotest.(check int) "second pass stable" 5 (Plan.static_pruned again)

let test_pass_untouched_when_nothing_dead () =
  (* x + y > 6 never definitely fires for any single value of either
     iterator, so nothing may be removed. *)
  let open Expr.Infix in
  let sp = Space.create ~name:"coupled" () in
  Space.iterator sp "x" (Iter.range_i 0 4);
  Space.iterator sp "y" (Iter.range_i 0 4);
  Space.constrain sp "sum_cap" (Expr.var "x" +: Expr.var "y" >: Expr.int 6);
  let plan = Plan.make_exn sp in
  let propagated = Propagate.pass plan in
  Alcotest.(check int) "coupled constraint removes nothing" 0
    (Plan.static_pruned propagated)

(* ------------------------------------------------------------------ *)
(* Byte-identity of statistics, all plan engines                        *)
(* ------------------------------------------------------------------ *)

let full_stats_equal msg (a : Engine.stats) (b : Engine.stats) =
  Alcotest.(check int) (msg ^ ": survivors") a.Engine.survivors b.Engine.survivors;
  Alcotest.(check int)
    (msg ^ ": loop_iterations")
    a.Engine.loop_iterations b.Engine.loop_iterations;
  Alcotest.(check (array (triple string string int)))
    (msg ^ ": pruned")
    (Array.map
       (fun (n, c, k) -> (n, Space.constraint_class_name c, k))
       a.Engine.pruned)
    (Array.map
       (fun (n, c, k) -> (n, Space.constraint_class_name c, k))
       b.Engine.pruned)

let engines =
  [
    ("staged", fun plan -> Engine_staged.run plan);
    ("vm", fun plan -> Engine_vm.run_plan plan);
    ("interp", fun plan -> Engine_interp.run_plan plan);
  ]

let spaces () =
  [
    ("parity", parity_space ());
    ("triangle", Support.triangle_space ());
    ("mixed", Support.mixed_space ());
    ("gemm", Support.gemm_space ~max_dim:16 ~max_threads:64);
    ("gemm-20", Support.gemm_space ~max_dim:20 ~max_threads:96);
    ("conv2d", Beast_kernels.Conv2d.space ());
  ]

let test_identity_all_engines () =
  List.iter
    (fun (sname, sp) ->
      let plan = Plan.make_exn sp in
      let propagated = Propagate.pass plan in
      List.iter
        (fun (ename, run) ->
          full_stats_equal
            (Printf.sprintf "%s/%s" sname ename)
            (run plan) (run propagated))
        engines)
    (spaces ())

(* Survivor decode order must also match: the pass keeps live values in
   trip order. *)
let test_on_hit_order () =
  let sp = parity_space () in
  let plan = Plan.make_exn sp in
  let propagated = Propagate.pass plan in
  let collect run_with =
    let acc = ref [] in
    ignore
      (run_with ~on_hit:(fun lookup ->
           match (lookup "x", lookup "y") with
           | Value.Int x, Value.Int y -> acc := (x, y) :: !acc
           | _ -> Alcotest.fail "non-int hit"));
    List.rev !acc
  in
  Alcotest.(check (list (pair int int)))
    "hit order preserved"
    (collect (fun ~on_hit -> Engine_staged.run ~on_hit plan))
    (collect (fun ~on_hit -> Engine_staged.run ~on_hit propagated))

(* Chunk-then-propagate: per-chunk statistics stay byte-identical, and
   the merged chunks equal the sequential unpropagated run. *)
let test_sharded_identity () =
  List.iter
    (fun (sname, sp) ->
      let plan = Plan.make_exn sp in
      let seq = Engine_staged.run plan in
      let n = 3 in
      let chunk_stats =
        List.init n (fun i ->
            let chunk = Plan.chunk_outer plan ~index:i ~of_:n in
            let propagated = Propagate.pass chunk in
            let got = Engine_staged.run propagated in
            full_stats_equal
              (Printf.sprintf "%s chunk %d" sname i)
              (Engine_staged.run chunk) got;
            got)
      in
      let dedup = Plan.depth0_constraints plan in
      let merged_survivors =
        List.fold_left (fun a s -> a + s.Engine.survivors) 0 chunk_stats
      in
      Alcotest.(check int)
        (sname ^ ": merged survivors")
        seq.Engine.survivors merged_survivors;
      Array.iteri
        (fun ci (cname, _, k) ->
          let merged =
            if dedup.(ci) then
              let _, _, k0 = (List.hd chunk_stats).Engine.pruned.(ci) in
              k0
            else
              List.fold_left
                (fun a s ->
                  let _, _, kc = s.Engine.pruned.(ci) in
                  a + kc)
                0 chunk_stats
          in
          Alcotest.(check int)
            (Printf.sprintf "%s: merged %s" sname cname)
            k merged)
        seq.Engine.pruned)
    (spaces ())

(* ------------------------------------------------------------------ *)
(* Provenance: static firings replay exactly like live ones            *)
(* ------------------------------------------------------------------ *)

let test_provenance_static () =
  let plan = Plan.make_exn (parity_space ()) in
  let propagated = Propagate.pass plan in
  let (_ : Engine.stats), base =
    Provenance.with_collector (fun () -> Engine_staged.run plan)
  in
  let (_ : Engine.stats), prop =
    Provenance.with_collector (fun () -> Engine_staged.run propagated)
  in
  (* 5 dead x values, each replayed as a firing that removes the
     3-point y subtree: the summary cannot tell them from live ones. *)
  Alcotest.(check int) "dead values" 5 (Plan.static_pruned propagated);
  Alcotest.(check bool) "identical summaries" true (base = prop)

let () =
  Alcotest.run "propagate"
    [
      ( "intervals",
        [ Alcotest.test_case "arithmetic" `Quick test_interval_arith ] );
      ( "pass",
        [
          Alcotest.test_case "removes dead values" `Quick
            test_pass_removes_dead;
          Alcotest.test_case "no-op without dead values" `Quick
            test_pass_untouched_when_nothing_dead;
        ] );
      ( "identity",
        [
          Alcotest.test_case "all engines, all spaces" `Quick
            test_identity_all_engines;
          Alcotest.test_case "on_hit order" `Quick test_on_hit_order;
          Alcotest.test_case "3-way shard + merge" `Quick
            test_sharded_identity;
        ] );
      ( "provenance",
        [ Alcotest.test_case "static firings" `Quick test_provenance_static ]
      );
    ]
