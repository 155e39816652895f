open Beast_core

let build_exn plan =
  match Feasible.build plan with
  | Ok t -> t
  | Error msg -> Alcotest.fail ("Feasible.build: " ^ msg)

(* ------------------------------------------------------------------ *)
(* Exact counts vs the enumeration funnel                              *)
(* ------------------------------------------------------------------ *)

let parity_space () =
  let open Expr.Infix in
  let sp = Space.create ~name:"parity" () in
  Space.iterator sp "x" (Iter.range_i 0 10);
  Space.constrain sp "odd_x" (Expr.var "x" %: Expr.int 2 =: Expr.int 1);
  Space.iterator sp "y" (Iter.range_i 0 3);
  sp

let gemm_scaled () =
  let open Beast_kernels in
  Gemm.space
    ~settings:
      {
        Gemm.default_settings with
        Gemm.device =
          Beast_gpu.Device.scale ~max_dim:16 ~max_threads:64
            Beast_gpu.Device.tesla_k40c;
      }
    ()

let count_spaces () =
  [
    ("parity", parity_space ());
    ("triangle", Support.triangle_space ());
    ("mixed", Support.mixed_space ());
    ("gemm", gemm_scaled ());
    ("conv2d", Beast_kernels.Conv2d.space ());
  ]

let test_count_equals_survivors () =
  List.iter
    (fun (name, sp) ->
      let plan = Plan.make_exn sp in
      Alcotest.(check int)
        (name ^ ": count = funnel survivors")
        (Engine_staged.run plan).Engine.survivors
        (Feasible.count (build_exn plan)))
    (count_spaces ())

(* The CI criterion: a >10^9-point constrained space counted exactly,
   with no enumeration anywhere near the point count. *)
let test_count_billion () =
  let plan = Plan.make_exn (Beast_kernels.Synth.space ()) in
  let t = build_exn plan in
  Alcotest.(check int)
    "synth chain space, closed form" 1_465_451_008 (Feasible.count t);
  Alcotest.(check int)
    "closed-form helper agrees"
    (Beast_kernels.Synth.expected_survivors ())
    (Feasible.count t)

(* Propagation folds the dead values out of the iterators but may not
   change the SET; the diagram must come out structurally identical
   (dead values produce Empty children, which are never stored). *)
let test_propagated_same_set () =
  List.iter
    (fun (name, sp) ->
      let plan = Plan.make_exn sp in
      let a = build_exn plan and b = build_exn (Propagate.pass plan) in
      Alcotest.(check int)
        (name ^ ": same count after propagation")
        (Feasible.count a) (Feasible.count b);
      Alcotest.(check string)
        (name ^ ": same serialized diagram")
        (Feasible.to_string a) (Feasible.to_string b))
    (count_spaces ())

(* ------------------------------------------------------------------ *)
(* nth / sample                                                        *)
(* ------------------------------------------------------------------ *)

let all_points t =
  List.init (Feasible.count t) (fun i -> Feasible.nth t i)

let engine_points plan =
  let acc = ref [] in
  let names = plan.Plan.iter_order in
  ignore
    (Engine_staged.run
       ~on_hit:(fun lookup ->
         acc :=
           List.map
             (fun n ->
               match lookup n with
               | Value.Int v -> (n, v)
               | _ -> Alcotest.fail "non-int iterator value")
             names
           :: !acc)
       plan);
  List.rev !acc

let test_nth_enumerates_the_set () =
  let plan = Plan.make_exn (Support.mixed_space ()) in
  let t = build_exn plan in
  let ours = all_points t in
  let theirs = engine_points plan in
  Alcotest.(check int) "same cardinality" (List.length theirs)
    (List.length ours);
  (* Same set; nth's canonical (sorted-per-layer) order need not match
     the engine's trip order. *)
  Alcotest.(check bool)
    "same point set" true
    (List.sort compare ours = List.sort compare theirs);
  Alcotest.(check bool)
    "nth order strictly increasing" true
    (let rec sorted = function
       | a :: (b :: _ as tl) -> compare a b < 0 && sorted tl
       | _ -> true
     in
     sorted (List.map (List.map snd) ours))

let test_nth_out_of_bounds () =
  let t = build_exn (Plan.make_exn (parity_space ())) in
  Alcotest.check_raises "past the end"
    (Invalid_argument "Feasible.nth: index 15 out of bounds [0, 15)")
    (fun () -> ignore (Feasible.nth t 15))

let test_sample () =
  let plan = Plan.make_exn (Support.mixed_space ()) in
  let t = build_exn plan in
  let members = List.sort compare (all_points t) in
  let rng = Random.State.make [| 42 |] in
  for _ = 1 to 50 do
    match Feasible.sample ~rng t with
    | None -> Alcotest.fail "sample of a non-empty set"
    | Some p ->
      if not (List.mem p members) then
        Alcotest.fail "sampled point not in the set"
  done;
  (* Empty set: a depth-0-false space. *)
  let open Expr.Infix in
  let dead = Space.create ~name:"dead" () in
  Space.iterator dead "x" (Iter.range_i 0 5);
  Space.constrain dead "always" (Expr.var "x" >=: Expr.int 0);
  let td = build_exn (Plan.make_exn dead) in
  Alcotest.(check int) "dead space count" 0 (Feasible.count td);
  Alcotest.(check bool) "dead space sample" true (Feasible.sample td = None);
  let point = [| 7 |] in
  Alcotest.(check bool) "dead space sample_into" false
    (Feasible.sample_into td point);
  Alcotest.(check (array int)) "point untouched" [| 7 |] point

(* The array walker and the list wrappers agree draw for draw: the same
   seed gives the same points through [sample_into] and [sample], and
   every [nth_into] equals [nth]. *)
let test_into_matches_lists () =
  let t = build_exn (Plan.make_exn (Support.mixed_space ())) in
  let n_layers = List.length (Feasible.iterators t) in
  let point = Array.make n_layers 0 in
  for i = 0 to Feasible.count t - 1 do
    Feasible.nth_into t i point;
    Alcotest.(check (list int)) "nth_into" (List.map snd (Feasible.nth t i))
      (Array.to_list point)
  done;
  let r1 = Random.State.make [| 9 |] and r2 = Random.State.make [| 9 |] in
  for _ = 1 to 50 do
    Alcotest.(check bool) "drawn" true (Feasible.sample_into ~rng:r1 t point);
    match Feasible.sample ~rng:r2 t with
    | Some p ->
      Alcotest.(check (list int)) "same draw" (List.map snd p)
        (Array.to_list point)
    | None -> Alcotest.fail "sample of a non-empty set"
  done

(* Layer-greedy nearest by brute force: keep the members whose value at
   each layer, in turn, is nearest that layer's target (smallest on a
   tie). *)
let greedy_nearest members targets =
  let rec go layer = function
    | [ p ] -> p
    | ps ->
      let t = targets.(layer) in
      let v_of p = snd (List.nth p layer) in
      let better v w =
        let dv = abs (v - t) and dw = abs (w - t) in
        if dv < dw || (dv = dw && v < w) then v else w
      in
      let vs = List.map v_of ps in
      let v = List.fold_left better (List.hd vs) vs in
      let ps = List.filter (fun p -> v_of p = v) ps in
      if layer + 1 = Array.length targets then List.hd ps else go (layer + 1) ps
  in
  go 0 members

let test_nearest () =
  let t = build_exn (Plan.make_exn (Support.mixed_space ())) in
  let members = all_points t in
  let layers = List.length (Feasible.iterators t) in
  let rng = Random.State.make [| 2024 |] in
  for _ = 1 to 200 do
    let targets = Array.init layers (fun _ -> Random.State.int rng 21 - 5) in
    let p = Feasible.nearest t targets in
    if not (List.mem p members) then Alcotest.fail "nearest: not a member";
    if p <> greedy_nearest members targets then
      Alcotest.failf "nearest [%s]: differs from brute force"
        (String.concat " " (Array.to_list (Array.map string_of_int targets)))
  done

(* A one-iterator space over the given values. *)
let values_set vs =
  let sp = Space.create ~name:"values" () in
  Space.iterator sp "x" (Iter.ints vs);
  build_exn (Plan.make_exn sp)

let nearest_x t target = List.assoc "x" (Feasible.nearest t [| target |])

let test_nearest_ties_and_extremes () =
  (* 2 and 4 share a run, 10 has its own: one tie inside a run, one
     across runs. *)
  let t = values_set [ 2; 4; 10 ] in
  Alcotest.(check int) "tie inside a run" 2 (nearest_x t 3);
  Alcotest.(check int) "tie across runs" 4 (nearest_x t 7);
  Alcotest.(check int) "past the end" 10 (nearest_x t 100);
  (* Differences to the far end do not fit in an int. *)
  let t = values_set [ -max_int; 0; max_int ] in
  Alcotest.(check int) "min_int" (-max_int) (nearest_x t min_int);
  Alcotest.(check int) "max_int" max_int (nearest_x t max_int);
  Alcotest.(check int) "just above 0" 0 (nearest_x t 1);
  Alcotest.(check int) "just below max_int" max_int (nearest_x t (max_int - 1));
  (* Here even the run's stride wraps. *)
  let t = values_set [ -max_int; max_int ] in
  Alcotest.(check int) "wrapped stride, tie" (-max_int) (nearest_x t 0);
  Alcotest.(check int) "wrapped stride, above" max_int (nearest_x t 1);
  Alcotest.(check int) "wrapped stride, below" (-max_int) (nearest_x t (-1))

let test_nearest_empty () =
  let open Expr.Infix in
  let dead = Space.create ~name:"dead" () in
  Space.iterator dead "x" (Iter.range_i 0 5);
  Space.constrain dead "always" (Expr.var "x" >=: Expr.int 0);
  let td = build_exn (Plan.make_exn dead) in
  Alcotest.check_raises "empty set"
    (Invalid_argument "Feasible.nearest: empty set")
    (fun () -> ignore (Feasible.nearest td [| 0 |]))

(* ------------------------------------------------------------------ *)
(* of_propagation: upper bound, exact when propagation is complete     *)
(* ------------------------------------------------------------------ *)

let test_of_propagation () =
  (* Parity: the one constraint folds entirely into the iterator, so
     the bound is exact. *)
  let plan = Propagate.pass (Plan.make_exn (parity_space ())) in
  (match Feasible.of_propagation plan with
  | Error msg -> Alcotest.fail msg
  | Ok ub ->
    Alcotest.(check int) "parity: bound is exact" 15 (Feasible.count ub));
  (* Coupled constraint: propagation cannot touch it, the bound is the
     full product. *)
  let open Expr.Infix in
  let sp = Space.create ~name:"coupled" () in
  Space.iterator sp "x" (Iter.range_i 0 5);
  Space.iterator sp "y" (Iter.range_i 0 5);
  Space.constrain sp "sum_cap" (Expr.var "x" +: Expr.var "y" >: Expr.int 6);
  let plan = Propagate.pass (Plan.make_exn sp) in
  match Feasible.of_propagation plan with
  | Error msg -> Alcotest.fail msg
  | Ok ub ->
    let exact = Feasible.count (build_exn plan) in
    Alcotest.(check int) "coupled: product bound" 25 (Feasible.count ub);
    Alcotest.(check int) "coupled: exact below bound" 22 exact

(* A static range too long to materialise (2^62 values) is the budget
   error [build] gives, from the bound too. *)
let test_oversized_range () =
  let plan =
    let sp = Space.create ~name:"long_range" () in
    Space.iterator sp "x" (Iter.range_i 0 max_int);
    Space.iterator sp "y" (Iter.range_i 0 3);
    Plan.make_exn sp
  in
  let budget what = function
    | Ok _ -> Alcotest.failf "%s accepted a 2^62-value range" what
    | Error msg ->
      Alcotest.(check string) what
        (Printf.sprintf
           "iterator x: range of %d values exceeds the 2000000-state budget"
           max_int)
        msg
  in
  budget "build" (Feasible.build plan);
  budget "of_propagation" (Feasible.of_propagation plan)

(* ------------------------------------------------------------------ *)
(* Set algebra                                                         *)
(* ------------------------------------------------------------------ *)

let constrained_xy name expr =
  let sp = Space.create ~name () in
  Space.iterator sp "x" (Iter.range_i 0 10);
  Space.constrain sp name expr;
  Space.iterator sp "y" (Iter.range_i 0 3);
  sp

let test_union_inter () =
  let open Expr.Infix in
  (* A: odd x pruned -> x in {0,2,4,6,8}; B: x >= 6 pruned -> x in 0..5. *)
  let ta =
    build_exn
      (Plan.make_exn (constrained_xy "odd" (Expr.var "x" %: Expr.int 2 =: Expr.int 1)))
  in
  let tb =
    build_exn (Plan.make_exn (constrained_xy "high" (Expr.var "x" >=: Expr.int 6)))
  in
  let ok = function
    | Ok t -> t
    | Error msg -> Alcotest.fail msg
  in
  Alcotest.(check int) "inter" (3 * 3) (Feasible.count (ok (Feasible.inter ta tb)));
  Alcotest.(check int) "union" (8 * 3) (Feasible.count (ok (Feasible.union ta tb)));
  Alcotest.(check int) "self union" (Feasible.count ta)
    (Feasible.count (ok (Feasible.union ta ta)));
  Alcotest.(check int) "self inter" (Feasible.count tb)
    (Feasible.count (ok (Feasible.inter tb tb)));
  (* Inter with the propagation upper bound recovers the exact set. *)
  let plan = Propagate.pass (Plan.make_exn (parity_space ())) in
  let exact = build_exn plan in
  (match Feasible.of_propagation plan with
  | Error msg -> Alcotest.fail msg
  | Ok ub ->
    Alcotest.(check string) "exact inter bound = exact"
      (Feasible.to_string exact)
      (Feasible.to_string (ok (Feasible.inter exact ub))));
  (* Mismatched layers refuse. *)
  let other = Space.create ~name:"other" () in
  Space.iterator other "a" (Iter.range_i 0 4);
  let tc = build_exn (Plan.make_exn other) in
  match Feasible.union ta tc with
  | Ok _ -> Alcotest.fail "layer mismatch accepted"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Determinism                                                         *)
(* ------------------------------------------------------------------ *)

let test_deterministic_serialization () =
  List.iter
    (fun (name, sp) ->
      let s1 = Feasible.to_string (build_exn (Plan.make_exn sp)) in
      let again =
        List.assoc name (count_spaces ())
      in
      let s2 = Feasible.to_string (build_exn (Plan.make_exn again)) in
      Alcotest.(check string) (name ^ ": independent builds agree") s1 s2)
    (count_spaces ())

(* The serialized diagrams of three reference spaces, pinned by digest:
   a rewrite of the walk that reorders or re-splits runs fails here even
   when it agrees with itself. *)
let test_pinned_digests () =
  List.iter
    (fun (name, sp, digest) ->
      let s = Feasible.to_string (build_exn (Plan.make_exn sp)) in
      Alcotest.(check string)
        (name ^ ": diagram digest") digest
        (Digest.to_hex (Digest.string s)))
    [
      ( "synth",
        Beast_kernels.Synth.space (),
        "4b9988092ab56f345fee375a2cf9b5ae" );
      ( "gemm-20",
        Support.gemm_space ~max_dim:20 ~max_threads:96,
        "b970a37bbbece59cd7e0b3ba3037efdd" );
      ( "conv2d",
        Beast_kernels.Conv2d.space (),
        "9f10fbc31a93d2b09060621e83b92832" );
    ]

(* ------------------------------------------------------------------ *)
(* Edge paths of the build                                             *)
(* ------------------------------------------------------------------ *)

let build_error ?max_states sp =
  match Feasible.build ?max_states (Plan.make_exn sp) with
  | Ok _ -> Alcotest.fail "build accepted the space"
  | Error msg -> msg

let two_level name ~x ~checks =
  let sp = Space.create ~name () in
  Space.iterator sp "x" x;
  Space.iterator sp "y" (Iter.range_i 0 3);
  List.iter (fun (n, e) -> Space.constrain sp n e) checks;
  sp

let test_duplicate_value () =
  let open Expr.Infix in
  let dup = Iter.ints [ 3; 1; 3 ] in
  Alcotest.(check string)
    "repeated value" "iterator visits value 3 twice"
    (build_error (two_level "dup" ~x:dup ~checks:[]));
  (* Value 3's subtree is empty, yet the repeat is still an error. *)
  Alcotest.(check string)
    "repeated value with an empty subtree" "iterator visits value 3 twice"
    (build_error
       (two_level "dup_empty" ~x:dup
          ~checks:[ ("no3", Expr.var "x" =: Expr.int 3) ]))

let test_descending_range () =
  let open Expr.Infix in
  let checks =
    [ ("mod4", (Expr.var "x" +: Expr.var "y") %: Expr.int 4 =: Expr.int 0) ]
  in
  let down =
    build_exn
      (Plan.make_exn
         (two_level "steps" ~x:(Iter.range_i ~step:(-2) 10 0) ~checks))
  and up =
    build_exn
      (Plan.make_exn
         (two_level "steps" ~x:(Iter.ints [ 2; 4; 6; 8; 10 ]) ~checks))
  in
  Alcotest.(check string)
    "range(10, 0, -2) = values(2, 4, 6, 8, 10)" (Feasible.to_string up)
    (Feasible.to_string down)

let test_eval_errors () =
  let open Expr.Infix in
  let zero = Space.create ~name:"zero_step" () in
  Space.iterator zero "x" (Iter.range_i 0 3);
  Space.iterator zero "y"
    (Iter.range ~step:(Expr.var "x" -: Expr.var "x") (Expr.int 0) (Expr.int 5));
  Alcotest.(check string)
    "zero step" "Feasible: zero range step" (build_error zero);
  let div = Space.create ~name:"div" () in
  Space.iterator div "y" (Iter.range_i 0 3);
  Space.derived div "z" (Expr.int 12 /: Expr.var "y");
  Space.constrain div "big_z" (Expr.var "z" >: Expr.int 100);
  Alcotest.(check string)
    "12 / y at y = 0" "division by zero while evaluating the plan"
    (build_error div)

let test_state_budget () =
  let sp = Space.create ~name:"tiny" () in
  Space.iterator sp "x" (Iter.range_i 0 1);
  Space.iterator sp "y" (Iter.range_i 0 1);
  let msg = build_error ~max_states:1 sp in
  Alcotest.(check bool)
    ("names the iterator: " ^ msg) true
    (String.starts_with ~prefix:"state explosion at iterator y (context: none)"
       msg);
  let fits ~max_states sp expected =
    match Feasible.build ~max_states (Plan.make_exn sp) with
    | Ok t -> Alcotest.(check int) "count" expected (Feasible.count t)
    | Error msg -> Alcotest.fail msg
  in
  (* y reads nothing outside, so its one context is walked once and the
     second x value hits the memo: two states. *)
  let sp = Space.create ~name:"independent" () in
  Space.iterator sp "x" (Iter.range_i 0 2);
  Space.iterator sp "y" (Iter.range_i 0 2);
  fits ~max_states:2 sp 4;
  (* y's range reads x, so y's context is x and never repeats: y is not
     memoized, yet each of its three walks still counts as a state. *)
  let open Expr.Infix in
  let sp = Space.create ~name:"dependent" () in
  Space.iterator sp "x" (Iter.range_i 0 3);
  Space.iterator sp "y" (Iter.range (Expr.int 0) (Expr.var "x" +: Expr.int 1));
  fits ~max_states:4 sp 6;
  let msg = build_error ~max_states:3 sp in
  Alcotest.(check bool)
    ("names the iterator and its context: " ^ msg) true
    (String.starts_with ~prefix:"state explosion at iterator y (context: x):"
       msg)

(* Five range(0, 8192) layers hold 2^65 points: the total is refused,
   never wrapped, by the exact build, the bound and the set algebra. *)
let test_count_overflow () =
  let layers ~a_lo ~a_hi =
    let open Expr.Infix in
    let sp = Space.create ~name:"huge" () in
    Space.iterator sp "a" (Iter.range_i 0 8192);
    List.iter
      (fun v -> Space.iterator sp v (Iter.range_i 0 8192))
      [ "b"; "c"; "d"; "e" ];
    Space.constrain sp "a_out"
      (Expr.var "a" <: Expr.int a_lo ||: (Expr.var "a" >=: Expr.int a_hi));
    Plan.make_exn sp
  in
  let refused what = function
    | Ok t -> Alcotest.failf "%s: count %d accepted" what (Feasible.count t)
    | Error msg ->
      Alcotest.(check string) what
        (Printf.sprintf "the feasible set holds more than max_int (%d) points"
           max_int)
        msg
  in
  let full = layers ~a_lo:0 ~a_hi:8192 in
  refused "build" (Feasible.build full);
  refused "of_propagation" (Feasible.of_propagation full);
  (* Each half holds 2^61 points; together 2^62, one past max_int. *)
  let half a_lo a_hi = build_exn (layers ~a_lo ~a_hi) in
  let lo = half 0 512 and hi = half 512 1024 in
  Alcotest.(check int) "a half fits" (1 lsl 61) (Feasible.count lo);
  refused "union" (Feasible.union lo hi)

(* One range entry longer than the budget is refused before it is
   walked, however cheap its values would be. *)
let test_long_range () =
  let long = Space.create ~name:"long" () in
  Space.iterator long "x" (Iter.range_i 0 max_int);
  Space.iterator long "y" (Iter.range_i 0 3);
  Alcotest.(check string)
    "range longer than the budget"
    (Printf.sprintf
       "iterator x: range of %d values exceeds the 2000000-state budget"
       max_int)
    (build_error long)

(* Opaque computes and dynamic iterators run concretely. *)
let test_opaque_counts () =
  let sp = Space.create ~name:"opaque" () in
  Space.iterator sp "a" (Iter.range_i 1 9);
  Space.iterator sp "b"
    (Iter.of_list_fn ~deps:[ "a" ] (fun env ->
         let a = Value.to_int (env "a") in
         List.init a (fun i -> Value.Int (a * (i + 1)))));
  Space.derived_f sp "s" ~deps:[ "a"; "b" ] (fun env ->
      Value.Int (Value.to_int (env "a") + Value.to_int (env "b")));
  Space.constrain_f sp "s_mod3" ~deps:[ "s" ] (fun env ->
      Value.Bool (Value.to_int (env "s") mod 3 = 1));
  let plan = Plan.make_exn sp in
  let expected = Support.survivor_count sp in
  Alcotest.(check int) "staged = reference" expected
    (Engine_staged.run plan).Engine.survivors;
  Alcotest.(check int) "count = reference" expected
    (Feasible.count (build_exn plan))

(* [y * x != 12] is solved per entry of the y loop: x = 0 and x = 5
   leave no y ([Pass_none]), x in {1, 3, 4} leave exactly one
   ([Pass_one]), and x = max_int / 2 could overflow the solve, which
   tests every y instead ([Test_each]). *)
let test_solved_counts () =
  let open Expr.Infix in
  let big = max_int / 2 in
  let sp = Space.create ~name:"solved" () in
  Space.iterator sp "x" (Iter.ints [ 0; 1; 3; 4; 5; big ]);
  Space.iterator sp "y" (Iter.range_i 0 20);
  Space.constrain sp "product" (Expr.var "y" *: Expr.var "x" <>: Expr.int 12);
  let plan = Plan.make_exn sp in
  let rec find var = function
    | Plan.Loop { l_var; l_slot; l_iter; l_body } :: rest ->
      if l_var = var then (l_slot, l_iter, l_body)
      else (try find var l_body with Not_found -> find var rest)
    | _ :: rest -> find var rest
    | [] -> raise Not_found
  in
  let x_slot, _, _ = find "x" plan.Plan.steps in
  let y_slot, y_iter, y_body = find "y" plan.Plan.steps in
  let sv =
    match Plan.solved_check ~slot:y_slot y_iter y_body with
    | Some sv -> sv
    | None -> Alcotest.fail "the y loop's check is not solved"
  in
  let solution x =
    let s = Array.make plan.Plan.n_slots 0 in
    s.(x_slot) <- x;
    Plan.solve ~start:0 ~step:1 ~trip:20
      ~coef:(Plan.eval_cexpr s sv.Plan.sv_coef)
      ~target:(Plan.eval_cexpr s sv.Plan.sv_target)
      ~only:(ref 0)
  in
  Alcotest.(check bool)
    "Pass_none, Pass_one and Test_each all occur" true
    (List.map solution [ 0; 1; 3; 4; 5; big ]
    = Plan.[ Pass_none; Pass_one; Pass_one; Pass_one; Pass_none; Test_each ]);
  List.iter
    (fun (what, plan) ->
      Alcotest.(check int)
        (what ^ ": count = staged survivors") 3
        (Engine_staged.run plan).Engine.survivors;
      Alcotest.(check int)
        (what ^ ": count") 3
        (Feasible.count (build_exn plan)))
    [ ("plan", plan); ("propagated", Propagate.pass plan) ]

(* ------------------------------------------------------------------ *)
(* Oracle: random spaces against brute-force enumeration               *)
(* ------------------------------------------------------------------ *)

(* Count and every indexed point agree with [Support.brute_force], on the
   plain and the propagated plan. The generator's dependent bounds give
   loops whose context holds their parent's, which the build walks
   without a memo. *)
let prop_matches_brute_force =
  QCheck.Test.make ~name:"count and nth match brute force" ~count:200
    Support.arb_space (fun descr ->
      let sp = Support.space_of descr in
      let plan = Plan.make_exn sp in
      let expected =
        let order = plan.Plan.iter_order in
        Support.brute_force sp
        |> List.map (fun point ->
               List.map (fun n -> Value.to_int (List.assoc n point)) order)
        |> List.sort compare
      in
      List.for_all
        (fun plan ->
          let t = build_exn plan in
          let points =
            List.init (Feasible.count t) (fun i ->
                List.map snd (Feasible.nth t i))
          in
          points = expected)
        [ plan; Propagate.pass plan ])

let () =
  Alcotest.run "feasible"
    [
      ( "count",
        [
          Alcotest.test_case "equals funnel survivors" `Quick
            test_count_equals_survivors;
          Alcotest.test_case "billion-point space, exact" `Quick
            test_count_billion;
          Alcotest.test_case "propagation preserves the set" `Quick
            test_propagated_same_set;
        ] );
      ( "index",
        [
          Alcotest.test_case "nth enumerates the set" `Quick
            test_nth_enumerates_the_set;
          Alcotest.test_case "nth bounds" `Quick test_nth_out_of_bounds;
          Alcotest.test_case "sample" `Quick test_sample;
          Alcotest.test_case "array walker matches lists" `Quick
            test_into_matches_lists;
          Alcotest.test_case "nearest is layer-greedy" `Quick test_nearest;
          Alcotest.test_case "nearest ties and extremes" `Quick
            test_nearest_ties_and_extremes;
          Alcotest.test_case "nearest of the empty set" `Quick
            test_nearest_empty;
        ] );
      ( "bound",
        [
          Alcotest.test_case "of_propagation" `Quick test_of_propagation;
          Alcotest.test_case "oversized range is an error" `Quick
            test_oversized_range;
        ] );
      ( "algebra",
        [ Alcotest.test_case "union and inter" `Quick test_union_inter ] );
      ( "determinism",
        [
          Alcotest.test_case "serialization" `Quick
            test_deterministic_serialization;
          Alcotest.test_case "pinned diagram digests" `Quick
            test_pinned_digests;
        ] );
      ( "edges",
        [
          Alcotest.test_case "repeated value" `Quick test_duplicate_value;
          Alcotest.test_case "descending range" `Quick test_descending_range;
          Alcotest.test_case "evaluation errors" `Quick test_eval_errors;
          Alcotest.test_case "state budget" `Quick test_state_budget;
          Alcotest.test_case "count past max_int" `Quick test_count_overflow;
          Alcotest.test_case "long range" `Quick test_long_range;
          Alcotest.test_case "opaque computes" `Quick test_opaque_counts;
          Alcotest.test_case "solved checks" `Quick test_solved_counts;
        ] );
      ( "oracle",
        [ QCheck_alcotest.to_alcotest prop_matches_brute_force ] );
    ]
