(* The pruning funnel and its radial visualization (paper Section VI and
   reference [7]): how much of the GEMM space each constraint removes.
   Writes gemm_funnel.svg and gemm_funnel.html next to the build.

   Run with: dune exec examples/pruning_funnel.exe *)

open Beast_core
open Beast_gpu
open Beast_kernels

let () =
  let device = Device.scale ~max_dim:16 ~max_threads:64 Device.tesla_k40c in
  let settings = { Gemm.default_settings with Gemm.device } in
  (* The divisor-iterator variant absorbs the reshape constraints into
     the read-grid iterators. Those closure iterators declare what they
     read, so one provenance sweep counts every removal exactly. *)
  let sp = Gemm.space_divisor_opt ~settings () in
  Format.printf "measuring the exact funnel (one provenance sweep)...@.";
  let f = Stats.funnel sp in
  Format.printf "%a" Stats.pp f;
  Format.printf "@.The paper (Section VI): constraints prune 'sometimes by as much as 99%%'.@.";
  Format.printf "Here: %.4f%% of the unconstrained space survives.@."
    (100.0 *. Stats.survival_rate f);
  let write name contents =
    let oc = open_out name in
    output_string oc contents;
    close_out oc;
    Format.printf "wrote %s@." name
  in
  write "gemm_funnel.svg" (Visualize.svg f);
  write "gemm_funnel.html" (Visualize.html_report ~title:"GEMM pruning funnel" f);
  write "gemm_funnel.csv" (Stats.to_csv f);
  (* The dependency DAG of Figure 16, for graphviz. *)
  write "gemm_dag.dot" (Space.to_dot sp)
