(* The paper's announced future work (Section XII): "incorporate
   statistical search methods to address the multidimensional search
   space growth". This example compares exhaustive sweeping against
   random search and hill climbing, both drawing from one feasible-set
   diagram of the GEMM space, counting objective evaluations.

   Run with: dune exec examples/statistical_search.exe *)

open Beast_core
open Beast_gpu
open Beast_kernels
open Beast_autotune

let () =
  let device = Device.scale ~max_dim:64 ~max_threads:256 Device.tesla_k40c in
  let settings = { Gemm.default_settings with Gemm.device } in
  let sp = Gemm.space ~settings () in
  let plan = Plan.make_exn sp in
  let feas = Result.get_ok (Feasible.build plan) in
  let objective = Gemm.objective settings in
  let peak = Device.peak_gflops device Device.Double in
  let pct x = 100.0 *. x /. peak in
  let rng = Random.State.make [| 42 |] in

  (* Exhaustive: the ground truth. *)
  let exhaustive = Tuner.tune ~objective sp in
  let best_exhaustive =
    match exhaustive.Tuner.best with
    | Some c -> c.Tuner.score
    | None -> 0.0
  in
  Format.printf
    "exhaustive:    best %7.1f GF (%4.1f%% of peak), %d evaluations@."
    best_exhaustive (pct best_exhaustive) exhaustive.Tuner.evaluated;

  (* Random search at a fraction of the budget; on a non-empty set both
     methods spend exactly [budget] evaluations. *)
  let budget = max 50 (exhaustive.Tuner.evaluated / 100) in
  (match Search.random_search ~rng ~budget ~objective plan feas with
  | Some c ->
    Format.printf
      "random search: best %7.1f GF (%4.1f%% of peak), %d evaluations (1%% of budget)@."
      c.Tuner.score (pct c.Tuner.score) budget
  | None -> Format.printf "random search: no feasible sample@.");

  (* Hill climbing on the same budget. *)
  (match Search.hill_climb ~rng ~budget ~objective plan feas with
  | Some c ->
    Format.printf
      "hill climb:    best %7.1f GF (%4.1f%% of peak), %d evaluations@."
      c.Tuner.score (pct c.Tuner.score) budget;
    Format.printf "               config:";
    List.iter
      (fun (n, v) -> Format.printf " %s=%s" n (Value.to_string v))
      c.Tuner.bindings;
    Format.printf "@."
  | None -> Format.printf "hill climb: no feasible start@.")
