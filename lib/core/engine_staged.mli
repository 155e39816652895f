(** The staged engine: the loop-nest plan compiled to nested OCaml
    closures ahead of the sweep, so the enumeration hot path executes no
    interpretive dispatch on names — the in-process equivalent of the
    paper's generated C backend (Section XI-D).

    Expressions become [unit -> int] closures over a shared slot array;
    loops become [while] closures; a firing constraint abandons the
    continuation for its subtree. [And]/[Or]/[If] keep short-circuit
    semantics (Section VIII-A). *)

val run : ?on_hit:Engine.on_hit -> Plan.t -> Engine.stats
(** One full sweep. Raises [Expr.Eval_error "<var>: zero range step"]
    on a range loop whose step evaluates to 0 and [Division_by_zero] if
    a body divides by zero. *)

val run_space : ?on_hit:Engine.on_hit -> Space.t -> Engine.stats
(** Convenience: plan (with hoisting) and run.
    @raise Plan.Error if the space does not plan. *)
