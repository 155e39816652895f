(** High-level sweep API tying the pieces together: run a space on an
    engine, collect survivors or fold over them. Engines are
    {!Engine_registry} modules, as in the tuner; the default is
    {!Engine_registry.staged}. *)

val run :
  ?engine:(module Engine_intf.S) ->
  ?on_hit:Engine.on_hit ->
  Space.t ->
  Engine.stats
(** @raise Plan.Error if the space does not plan. *)

val survivors :
  ?engine:(module Engine_intf.S) ->
  ?limit:int ->
  Space.t ->
  (string * Value.t) list list
(** Collect surviving points as (iterator, value) bindings in loop
    order; stops recording after [limit] points (default unlimited) but
    completes the sweep. With a parallel engine the list order follows
    each domain's completion. *)

val fold :
  init:'a -> f:('a -> Expr.lookup -> 'a) -> Space.t -> 'a * Engine.stats
(** Fold over survivors in sweep order on the staged engine. *)
