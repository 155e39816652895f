open Beast_lang

let test_make () =
  let n = Loopnest.make ~depth:2 ~total:100 in
  Alcotest.(check int) "sqrt 100" 10 n.Loopnest.length;
  let n = Loopnest.make ~depth:2 ~total:101 in
  Alcotest.(check int) "ceil sqrt 101" 11 n.Loopnest.length;
  let n = Loopnest.make ~depth:3 ~total:1000 in
  Alcotest.(check int) "cbrt 1000" 10 n.Loopnest.length;
  let n = Loopnest.make ~depth:1 ~total:7 in
  Alcotest.(check int) "depth 1" 7 n.Loopnest.length;
  Alcotest.(check int) "iterations" 49
    (Loopnest.iterations (Loopnest.make ~depth:2 ~total:45))

let test_make_invalid () =
  Alcotest.check_raises "depth 0" (Invalid_argument "Loopnest.make: depth in 1..4")
    (fun () -> ignore (Loopnest.make ~depth:0 ~total:10));
  Alcotest.check_raises "depth 5" (Invalid_argument "Loopnest.make: depth in 1..4")
    (fun () -> ignore (Loopnest.make ~depth:5 ~total:10))

let test_reference_checksum () =
  (* depth 1, length 4: sum (i+1) = 1+2+3+4 = 10. *)
  let o = Loopnest.reference { Loopnest.depth = 1; length = 4 } in
  Alcotest.(check int) "iterations" 4 o.Loopnest.body_iterations;
  Alcotest.(check int) "checksum" 10 o.Loopnest.checksum;
  (* depth 2, length 3: sum over i,j of (i+j+1) = 9*1 + 2*(sum i)*3 = 9+18=27. *)
  let o = Loopnest.reference { Loopnest.depth = 2; length = 3 } in
  Alcotest.(check int) "iterations" 9 o.Loopnest.body_iterations;
  Alcotest.(check int) "checksum" 27 o.Loopnest.checksum

let nests =
  List.concat_map
    (fun depth -> [ Loopnest.make ~depth ~total:2000; Loopnest.make ~depth ~total:50 ])
    [ 1; 2; 3; 4 ]

let check_tier name run =
  List.iter
    (fun nest ->
      let expected = Loopnest.reference nest in
      let got = run nest in
      Alcotest.(check int)
        (Printf.sprintf "%s d%d iterations" name nest.Loopnest.depth)
        expected.Loopnest.body_iterations got.Loopnest.body_iterations;
      Alcotest.(check int)
        (Printf.sprintf "%s d%d checksum" name nest.Loopnest.depth)
        expected.Loopnest.checksum got.Loopnest.checksum)
    nests

let test_python_variants () =
  List.iter
    (fun variant ->
      check_tier
        ("python-" ^ Interp_python.variant_name variant)
        (Interp_python.run variant))
    Interp_python.all_variants

let test_lua_variants () =
  List.iter
    (fun variant ->
      check_tier
        ("lua-" ^ Interp_lua.variant_name variant)
        (Interp_lua.run variant))
    Interp_lua.all_variants

let test_native_flavours () =
  List.iter
    (fun flavour ->
      check_tier ("native-" ^ Native.flavour_name flavour) (Native.run flavour))
    Native.all_flavours

let test_lua_for_is_smallest_program () =
  (* The fused FORLOOP makes the for variant's bytecode the shortest. *)
  let nest = Loopnest.make ~depth:3 ~total:1000 in
  let size v = Interp_lua.instruction_count v nest in
  Alcotest.(check bool) "for < repeat" true
    (size Interp_lua.Numeric_for < size Interp_lua.Repeat_until);
  Alcotest.(check bool) "repeat < while" true
    (size Interp_lua.Repeat_until < size Interp_lua.While_loop)

(* The fastest of 5 wall-clock runs: a neighbouring process can slow
   any one run, but seldom all five. *)
let time f =
  let best = ref infinity in
  for _ = 1 to 5 do
    let t0 = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (f ()));
    best := Float.min !best (Unix.gettimeofday () -. t0)
  done;
  !best

let test_tier_ordering () =
  (* The headline claim of Figures 17-19: compiled >> VM >> AST-walking,
     by comfortable margins even on a small workload. *)
  let nest = Loopnest.make ~depth:2 ~total:1_000_000 in
  let t_python = time (fun () -> Interp_python.run Interp_python.For_xrange nest) in
  let t_lua = time (fun () -> Interp_lua.run Interp_lua.Numeric_for nest) in
  let t_native = time (fun () -> Native.run Native.Fortran_style nest) in
  Alcotest.(check bool) "lua at least 2x python" true (t_python > 2.0 *. t_lua);
  Alcotest.(check bool) "native at least 5x lua" true (t_lua > 5.0 *. t_native)

let () =
  Alcotest.run "lang"
    [
      ( "loopnest",
        [
          Alcotest.test_case "make" `Quick test_make;
          Alcotest.test_case "invalid depth" `Quick test_make_invalid;
          Alcotest.test_case "reference checksum" `Quick test_reference_checksum;
        ] );
      ( "tiers",
        [
          Alcotest.test_case "python variants" `Quick test_python_variants;
          Alcotest.test_case "lua variants" `Quick test_lua_variants;
          Alcotest.test_case "native flavours" `Quick test_native_flavours;
          Alcotest.test_case "lua bytecode sizes" `Quick
            test_lua_for_is_smallest_program;
        ] );
      ( "performance shape",
        [ Alcotest.test_case "tier ordering" `Slow test_tier_ordering ] );
    ]
