(* Shared helpers for the test suites: reference enumeration and a few
   canonical spaces. *)

open Beast_core

(* Brute-force reference: enumerate a space by direct recursion over the
   declaration data, evaluating everything with plain Expr.eval — an
   independent implementation the engines are checked against. *)
let brute_force space =
  let env : (string, Value.t) Hashtbl.t = Hashtbl.create 32 in
  List.iter (fun (n, v) -> Hashtbl.replace env n v) (Space.settings space);
  let lookup n = Hashtbl.find env n in
  let eval_body = function
    | Space.E e -> Expr.eval lookup e
    | Space.F { fn; _ } -> fn lookup
  in
  (* Order iterators topologically; evaluate all deriveds+constraints at
     the innermost level, deriveds before the constraints that use them
     (topological order gives this). *)
  let dag =
    match Space.dag space with
    | Ok d -> d
    | Error e -> Alcotest.failf "space error: %a" Space.pp_error e
  in
  let topo = Dag.topo_order dag in
  let iter_names =
    List.filter
      (fun n -> List.exists (fun it -> it.Space.it_name = n) (Space.iterators space))
      topo
  in
  let inner_names = List.filter (fun n -> not (List.mem n iter_names)) topo in
  let survivors = ref [] in
  let iter_of n =
    (List.find (fun it -> it.Space.it_name = n) (Space.iterators space)).Space.it_iter
  in
  let body_of n =
    match List.find_opt (fun d -> d.Space.dv_name = n) (Space.deriveds space) with
    | Some d -> `Derived d.Space.dv_body
    | None ->
      `Constraint
        (List.find (fun c -> c.Space.cn_name = n) (Space.constraints space))
          .Space.cn_body
  in
  let rec loop = function
    | [] ->
      let ok =
        List.for_all
          (fun n ->
            match body_of n with
            | `Derived b ->
              Hashtbl.replace env n (eval_body b);
              true
            | `Constraint b -> not (Value.truthy (eval_body b)))
          inner_names
      in
      if ok then
        survivors :=
          List.map (fun n -> (n, Hashtbl.find env n)) iter_names :: !survivors
    | n :: rest ->
      let vs = Iter.materialize lookup (iter_of n) in
      Array.iter
        (fun v ->
          Hashtbl.replace env n v;
          loop rest)
        vs;
      Hashtbl.remove env n
  in
  loop iter_names;
  List.rev !survivors

let survivor_count space = List.length (brute_force space)

(* A small space with dependent iterators, a derived variable and
   constraints of different classes. *)
let triangle_space () =
  let open Expr.Infix in
  let sp = Space.create ~name:"triangle" () in
  Space.setting_i sp "n" 8;
  Space.iterator sp "x" (Iter.range (Expr.int 0) (Expr.var "n"));
  Space.iterator sp "y" (Iter.range (Expr.var "x") (Expr.var "n"));
  Space.derived sp "s" (Expr.var "x" +: Expr.var "y");
  Space.constrain sp "odd_sum" (Expr.var "s" %: Expr.int 2 =: Expr.int 1);
  Space.constrain sp ~cls:Space.Soft "big_x" (Expr.var "x" >: Expr.int 5);
  sp

(* A space exercising settings-dependent iterators, closures and algebra. *)
let mixed_space () =
  let open Expr.Infix in
  let sp = Space.create ~name:"mixed" () in
  Space.setting_s sp "mode" "wide";
  Space.setting_i sp "limit" 10;
  Space.iterator sp "a"
    (Iter.range (Expr.int 1)
       (Expr.if_ (Expr.var "mode" =: Expr.string "wide") (Expr.int 7) (Expr.int 3)));
  Space.iterator sp "b"
    (Iter.closure ~deps:[ "a" ] (fun env ->
         let a = Value.to_int (env "a") in
         List.to_seq (List.init a (fun i -> Value.Int (i + 1)))));
  Space.iterator sp "c"
    (Iter.union (Iter.ints [ 1; 2 ]) (Iter.ints [ 2; 3 ]));
  Space.derived sp "p" (Expr.var "a" *: Expr.var "b");
  Space.constrain sp "over_limit" (Expr.var "p" >: Expr.var "limit");
  Space.constrain_f sp ~cls:Space.Correctness "c_divides" ~deps:[ "p"; "c" ]
    (fun env ->
      let p = Value.to_int (env "p") and c = Value.to_int (env "c") in
      Value.Bool (p mod c <> 0));
  sp

(* A space whose removal count raises at a firing (here [12 / a] at
   a = 0, which the engine never evaluates because the check prunes
   it): its funnel is partial, [ca] removed unknown and [cb] 8. *)
let raising_space () =
  let open Expr.Infix in
  let sp = Space.create ~name:"raise" () in
  Space.iterator sp "a" (Iter.range_i 0 4);
  Space.constrain sp "ca" (Expr.var "a" <: Expr.int 1);
  Space.iterator sp "b" (Iter.range (Expr.int 0) (Expr.int 12 /: Expr.var "a"));
  Space.constrain sp "cb" (Expr.var "b" >: Expr.int 4);
  sp

let stats_testable =
  Alcotest.testable Engine.pp_stats (fun a b ->
      a.Engine.survivors = b.Engine.survivors
      && a.Engine.pruned = b.Engine.pruned)

(* The GEMM space on a K40c scaled to [max_dim] and [max_threads]. *)
let gemm_space ~max_dim ~max_threads =
  let device =
    Beast_gpu.Device.scale ~max_dim ~max_threads Beast_gpu.Device.tesla_k40c
  in
  Beast_kernels.Gemm.space
    ~settings:{ Beast_kernels.Gemm.default_settings with device }
    ()

(* Random small spaces for the properties checked against
   [brute_force]: one to four ranges, each bound a literal or an earlier
   iterator (a dependent bound), one derived value and up to two checks.
   Ranges start anywhere in -3..3 and step by either sign; the [!=]
   shapes over products, with literal 0 and negative coefficients, reach
   the checks the staged engine and the generated C solve per loop entry
   instead of testing each value. A third of the draws end in a divisor
   pair: two more ranges [p] and [q], read by nothing else, and the
   check [p * q != t] ([Plan.solved_pair]'s shape), with [t] a literal
   in -5..40 or an earlier iterator; [p] starts in -1..3 so the window's
   guards both hold and fail. *)
let gen_space =
  let open QCheck.Gen in
  let gen_bound prev =
    match prev with
    | [] -> map (fun k -> Expr.int (1 + k)) (int_range 0 4)
    | _ ->
      oneof
        [
          map (fun k -> Expr.int (1 + k)) (int_range 0 4);
          map
            (fun i -> Expr.var (List.nth prev (i mod List.length prev)))
            (int_range 0 10);
        ]
  in
  (* A negative step walks down from the bound to just above the start. *)
  let gen_range prev =
    gen_bound prev >>= fun bound ->
    int_range (-3) 3 >>= fun start ->
    oneofl [ 1; 1; 1; 2; 3; -1; -2 ] >>= fun step ->
    return
      (if step > 0 then (Expr.int start, bound, step)
       else (bound, Expr.int (start - 1), step))
  in
  let gen_expr_over names =
    let open Expr.Infix in
    oneofl names >>= fun a ->
    oneofl names >>= fun b ->
    oneofl names >>= fun c ->
    let a = Expr.var a and b = Expr.var b and c = Expr.var c in
    oneof
      [
        oneofl
          [
            a +: b;
            a *: Expr.int 2;
            Expr.max_ a b;
            (a %: Expr.int 3) =: Expr.int 0;
            a <=: b;
          ];
        oneofl
          [
            a <>: b;
            (a *: b) <>: c;
            c <>: (b *: a);
            (Expr.int 0 *: a) <>: b;
            (Expr.int (-2) *: a) <>: c;
          ];
      ]
  in
  int_range 1 4 >>= fun n_iters ->
  let rec build_iters i prev acc =
    if i = n_iters then return (List.rev acc)
    else
      gen_range prev >>= fun range ->
      let name = Printf.sprintf "i%d" i in
      build_iters (i + 1) (name :: prev) ((name, range) :: acc)
  in
  let gen_pair names =
    let open Expr.Infix in
    let gen_pair_range =
      oneof
        [
          map (fun k -> Expr.int k) (int_range 1 8);
          map (fun i -> Expr.var (List.nth names (i mod List.length names)))
            (int_range 0 10);
        ]
      >>= fun bound ->
      int_range (-1) 3 >>= fun start ->
      oneofl [ 1; 1; 2; 3; -1 ] >>= fun step ->
      return
        (if step > 0 then (Expr.int start, bound, step)
         else (bound, Expr.int (start - 1), step))
    in
    gen_pair_range >>= fun p ->
    gen_pair_range >>= fun q ->
    oneof
      [
        map Expr.int (int_range (-5) 40);
        map Expr.var (oneofl names);
      ]
    >>= fun t ->
    oneofl
      [
        (Expr.var "p" *: Expr.var "q") <>: t;
        t <>: (Expr.var "q" *: Expr.var "p");
      ]
    >>= fun check -> return ([ ("p", p); ("q", q) ], check)
  in
  build_iters 0 [] [] >>= fun iters ->
  let names = List.map fst iters in
  gen_expr_over names >>= fun dv ->
  int_range 0 2 >>= fun n_cons ->
  list_repeat n_cons (gen_expr_over ("d0" :: names)) >>= fun cons ->
  int_range 0 2 >>= fun pair ->
  if pair > 0 then return (iters, dv, cons)
  else
    gen_pair names >>= fun (pq, check) ->
    return (iters @ pq, dv, cons @ [ check ])

let space_of (iters, dv, cons) =
  let sp = Space.create () in
  List.iter
    (fun (n, (start, stop, step)) ->
      Space.iterator sp n (Iter.range ~step:(Expr.int step) start stop))
    iters;
  Space.derived sp "d0" dv;
  List.iteri
    (fun i e -> Space.constrain sp (Printf.sprintf "c%d" i) e)
    cons;
  sp

let arb_space =
  QCheck.make
    ~print:(fun (iters, dv, cons) ->
      let b = Buffer.create 128 in
      List.iter
        (fun (n, (start, stop, step)) ->
          Buffer.add_string b
            (Printf.sprintf "%s in range(%s, %s, %d); " n (Expr.to_string start)
               (Expr.to_string stop) step))
        iters;
      Buffer.add_string b ("d0 = " ^ Expr.to_string dv ^ "; ");
      List.iteri
        (fun i e ->
          Buffer.add_string b (Printf.sprintf "c%d: %s; " i (Expr.to_string e)))
        cons;
      Buffer.contents b)
    gen_space
