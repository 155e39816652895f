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
