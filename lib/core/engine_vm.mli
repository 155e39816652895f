(** The bytecode engine: the plan is compiled to a flat instruction
    sequence over an integer register file and executed by a dispatch
    loop — the cost model of a register-based scripting VM such as Lua's,
    whose iteration rates the paper reports in Figure 18.

    Loops compile to trip-count form with explicit test/increment/jump
    instructions; [And]/[Or]/[If] compile to conditional jumps (preserving
    short-circuit evaluation); a firing constraint executes a fused
    count-and-jump instruction targeting the continuation of the loop at
    its hoisting depth. *)

type program
(** A compiled program; reusable across runs. *)

(** [instrument] (default false) interleaves Beast_obs bookkeeping
    instructions — per-depth entry counts, per-constraint and per-level
    stopwatches, throughput sampling. An uninstrumented program contains
    no such instructions, so tracing that is off costs nothing.
    [run_plan] instruments whenever the run is
    instrumented ({!Engine.Run}: tracing, progress or metrics) or
    provenance is on, which needs the per-depth entry counts; a program
    compiled without it reports no per-depth entries. *)
val compile : ?instrument:bool -> Plan.t -> program
val disassemble : program -> string
val instruction_count : program -> int

val run : ?on_hit:Engine.on_hit -> program -> Engine.stats
(** Raises [Expr.Eval_error "<var>: zero range step"] on a range loop
    whose step evaluates to 0, and [Division_by_zero]. *)

val run_plan : ?on_hit:Engine.on_hit -> Plan.t -> Engine.stats
