(** The paper's model autotuning problem: the GEMM kernel search space
    (Section IX), ported construct-for-construct from Figures 10–15.

    The space has the 15 iterators of Figure 11, the derived variables of
    Figure 12 and the twelve pruning constraints of Figures 13–15 (four
    hard, four soft, four correctness). Device parameters come from the
    {!Beast_gpu.Device} query record (Figure 8) and the
    {!Beast_gpu.Capability} tables (Figure 9); the global settings of
    Figure 10 (precision, arithmetic, transposition) parameterize the
    construction, since "the autotuning process is carried out separately
    for each precision and each case of transposition". *)

open Beast_gpu

type settings = {
  device : Device.t;
  precision : Device.precision;
  arithmetic : Device.arithmetic;
  trans_a : bool;
  trans_b : bool;
}

val default_settings : settings
(** Double real, no transposition, Tesla K40c — Figure 10's common case. *)

val space : ?settings:settings -> unit -> Beast_core.Space.t
(** The full search space. On the unscaled K40c a sweep runs
    2,096,997,743 loop iterations to 1,207,600 survivors: 1.3 s on
    [native:2] with the C compile, 0.7 s from the binary cache, on a
    shared 2-vCPU VM (264 s for the paper's generated C).
    {!Device.scale} shrinks it further. *)

val space_divisor_opt : ?settings:settings -> unit -> Beast_core.Space.t
(** The same space with the dominant enumeration cost removed: instead of
    scanning the full [dim_m_a x dim_n_a] (and b) grids and letting
    [cant_reshape_a1]/[b1] reject all non-factorizations of
    threads-per-block (by far the most-fired constraints in the plain
    space), the read-grid dimensions iterate over a {e closure iterator
    of divisor pairs} and the partner dimension becomes a derived
    variable. Demonstrates the paper's closure iterators carrying
    search-space knowledge; produces exactly the same survivors (test- and
    bench-verified) with orders of magnitude fewer loop iterations. The
    price is C-translatability: the divisor iterators are dynamic
    closures, so {!Beast_core.Codegen_c} rejects this variant. *)

val iterator_names : string list
(** The 15 dimensions, in Figure 11's order. *)

val constraint_names : (string * Beast_core.Space.constraint_class) list
(** The 12 constraints with their classes (Figures 13–15). *)

val decode : settings -> Beast_core.Expr.lookup -> Perf_model.gemm_config
(** Decode a surviving point into a performance-model configuration. *)

val objective : settings -> Beast_core.Expr.lookup -> float
(** Tuner objective: modeled GFLOP/s of the surviving point
    ({!Perf_model.gflops} on the settings' device). *)

val objective_sim : settings -> Beast_core.Expr.lookup -> float
(** Same, scored by the {!Sim} warp-scheduling simulator instead. *)
