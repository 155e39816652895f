(* Quickstart: describe a small search space declaratively, prune it,
   sweep it with two engines, and emit the C enumerator.

   Run with: dune exec examples/quickstart.exe *)

open Beast_core
open Expr.Infix

let () =
  (* A toy tuning problem: tile a 1D stencil. Dimensions: tile size and
     unroll factor; derived: work per block; constraints: hardware-ish
     limits. Definition order is free (Section V: deferred semantics). *)
  let sp = Space.create ~name:"stencil" () in
  Space.setting_i sp "max_tile" 512;
  Space.setting_i sp "cache_bytes" 4096;
  (* unroll is defined before tile, which it depends on: fine. *)
  Space.iterator sp "unroll" (Iter.ints [ 1; 2; 4; 8 ]);
  Space.iterator sp "tile" (Iter.range (Expr.int 8) (Expr.var "max_tile" +: Expr.int 1));
  Space.derived sp "bytes" (Expr.var "tile" *: Expr.int 8);
  Space.constrain sp ~cls:Space.Hard "over_cache"
    (Expr.var "bytes" >: Expr.var "cache_bytes");
  Space.constrain sp ~cls:Space.Correctness "unroll_divides"
    (Expr.var "tile" %: Expr.var "unroll" <>: Expr.int 0);
  Space.constrain sp ~cls:Space.Soft "tiny_tile"
    (Expr.var "tile" <: Expr.var "unroll" *: Expr.int 4);

  (* The dependency DAG and its level sets (Section X). *)
  (match Space.dag sp with
  | Ok dag ->
    Format.printf "level sets: ";
    List.iteri
      (fun i set -> Format.printf "L%d={%s} " i (String.concat "," set))
      (Dag.level_sets dag);
    Format.printf "@."
  | Error e -> Format.printf "space error: %a@." Space.pp_error e);

  (* Sweep with the staged engine. *)
  let stats = Sweep.run sp in
  Format.printf "%a" Engine.pp_stats stats;

  (* Same result through the bytecode VM. *)
  let _, vm_engine = Result.get_ok (Engine_registry.find "vm") in
  let vm = Sweep.run ~engine:vm_engine sp in
  Format.printf "vm agrees: %b@."
    (vm.Engine.survivors = stats.Engine.survivors);

  (* A few surviving points. *)
  let points = Sweep.survivors ~limit:5 sp in
  List.iter
    (fun point ->
      Format.printf "survivor:";
      List.iter
        (fun (n, v) -> Format.printf " %s=%s" n (Value.to_string v))
        point;
      Format.printf "@.")
    points;

  (* Translate to C (Section X-XI's code generation). *)
  let plan = Plan.make_exn sp in
  Format.printf "@.--- generated C (first lines) ---@.";
  let c = Codegen_c.generate_exn plan in
  String.split_on_char '\n' c
  |> List.filteri (fun i _ -> i < 18)
  |> List.iter print_endline
