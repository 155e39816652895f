(** Name-keyed engine selection.

    The one place that knows which engines exist: the CLI, the tuner and
    the bench all resolve engines through {!find}, and each engine is one
    {!catalog} row carrying its constructor. Every engine answers the
    single {!Engine_intf.S.run} entry point over an
    {!Engine_intf.target}: the interpreters plan a [Space] themselves
    (naive or hoisted), the compiled tiers plan it once with
    {!Plan.make_exn}, and every engine executes a handed-in [Plan] as
    given. *)

val staged : (module Engine_intf.S)
(** The closure-staged engine: the default of the CLI, {!Sweep} and the
    tuner. *)

(** One catalog row per engine: the accepted spec, its [beast engines]
    description, and the capability facts the CLI derives its behavior
    from instead of keeping name lists — whether propagation is on by
    default ([e_propagate_default], off only for the
    deliberately-unoptimized baseline), whether the engine can evaluate
    opaque OCaml closures ([e_opaque], false for the generated-C tier),
    whether it keeps a resumable chunk ledger ([e_resumable], read off
    the built module) and whether it records pruning provenance for
    [--explain-out] ([e_provenance], false for the generated-C tier). *)
type entry = {
  e_spec : string;
      (** accepted spec: [e_base], plus [[:NOUNS]] when parameterized *)
  e_descr : string;
  e_propagate_default : bool;
  e_opaque : bool;
  e_resumable : bool;
  e_provenance : bool;
  e_base : string;  (** the bare engine name *)
  e_param : string option;
      (** the parameter's noun (["domain"], ["thread"]); [None] for
          engines that take no parameter *)
  e_make : int option -> (module Engine_intf.S);
      (** build the engine; [None] is the bare spec's default *)
}

val catalog : entry list
(** Accepted specs with their descriptions and capabilities — what
    [beast engines] prints. {!names} and {!find} derive from it, so the
    listing, the help text, the CLI defaults and the resolved engines can
    never drift apart. *)

val names : string list
(** Accepted specs ([e_spec] of each catalog row), for help text and
    error messages. *)

val find : string -> (entry * (module Engine_intf.S), string) result
(** Resolve an engine spec — a bare name (["staged"], ["parallel"]) or a
    parameterized one (["parallel:8"]) — to its catalog row and the built
    engine. Errors on unknown names, on a parameter given to a
    non-parametric engine, and on a count that is not an integer of at
    least 1. *)
