(** Declarative search-space descriptions.

    A space gathers, in any order (the deferred semantics of Section V):
    - {b settings}: named constants such as [precision = "double"]
      (Figure 10) and device parameters (Figures 8–9);
    - {b iterators}: the dimensions of the search space (Figure 11);
    - {b derived variables}: named expressions over iterators and settings
      (Figure 12);
    - {b constraints}: rejection predicates in the paper's three classes —
      hard, soft, correctness (Figures 13–15). A constraint evaluating to
      a {e true} value prunes the point.

    Names share one namespace and must be unique. Definition order is
    irrelevant; the planner orders everything by the dependency DAG. *)

type constraint_class =
  | Hard         (** would fail to compile or launch (Figure 13) *)
  | Soft         (** correct but guaranteed slow (Figure 14) *)
  | Correctness  (** violates algorithmic assumptions (Figure 15) *)

val constraint_class_name : constraint_class -> string

(** The body of a derived variable or constraint: either a first-order
    expression (analysable, translatable to C) or an opaque OCaml function
    with declared dependencies (the paper's deferred/closure forms). *)
type body =
  | E of Expr.t
  | F of {
      fn_deps : string list;
      fn : Expr.lookup -> Value.t;
    }

type iterator = {
  it_name : string;
  it_iter : Iter.t;
}

type derived = {
  dv_name : string;
  dv_body : body;
}

type constraint_ = {
  cn_name : string;
  cn_class : constraint_class;
  cn_body : body;
}

type t

type error =
  | Duplicate_name of string
  | Undefined_reference of string * string  (** (referrer, missing name) *)
  | Cyclic of string list

val pp_error : Format.formatter -> error -> unit

exception Error of error

(** {1 Building} *)

val create : ?name:string -> unit -> t
val name : t -> string

val build : ?name:string -> (t -> unit) -> (t, error) result
(** [build ?name f] creates a space, runs [f] to populate it, and
    validates the result — the one construction path that turns every
    declaration error ([Duplicate_name], raised mid-[f]) and every
    validation error ([Undefined_reference], [Cyclic]) into a [result]
    instead of an exception. The DSL parser and the CLI route through
    it, so a malformed space is a one-line diagnostic, never a
    backtrace. *)

val setting : t -> string -> Value.t -> unit
val setting_i : t -> string -> int -> unit
val setting_s : t -> string -> string -> unit
val iterator : t -> string -> Iter.t -> unit
val derived : t -> string -> Expr.t -> unit

val derived_f : t -> string -> deps:string list -> (Expr.lookup -> Value.t) -> unit
(** A deferred derived variable backed by an OCaml function; [deps] must
    name every parameter the function reads, exactly as the paper's
    deferred functions name theirs in the argument list. Enforced: the
    lookup of every closure in a space ([derived_f], [constrain_f], and
    an iterator's [Iter.Closure]s) answers only its deps, and any other
    name raises [Expr.Eval_error] naming the closure and the name. *)

val constrain : t -> ?cls:constraint_class -> string -> Expr.t -> unit
(** [constrain sp name e]: prune the point whenever [e] is truthy.
    Default class {!constructor-Hard}. *)

val constrain_f :
  t ->
  ?cls:constraint_class ->
  string ->
  deps:string list ->
  (Expr.lookup -> Value.t) ->
  unit

(** All [setting]/[iterator]/[derived]/[constrain] calls raise
    {!exception-Error} [(Duplicate_name _)] on name reuse. *)

(** {1 Inspection} *)

val settings : t -> (string * Value.t) list
val iterators : t -> iterator list
val deriveds : t -> derived list
val constraints : t -> constraint_ list
val find_setting : t -> string -> Value.t option
val body_deps : body -> string list

val filter_constraints : t -> keep:(constraint_ -> bool) -> t
(** A copy of the space retaining only the constraints [keep] accepts
    (settings, iterators and derived variables are all kept). Used to
    build pruning funnels and to measure unconstrained cardinality. *)

val validate : t -> (unit, error) result
(** Checks that every referenced name is declared and that the dependency
    graph is acyclic. *)

val dag : t -> (Dag.t, error) result
(** The dependency DAG over iterators, derived variables and constraints
    (settings are constants and do not appear). Edge (u, v) iff u is used
    to express v — the graph of Figure 16. *)

val to_dot : t -> string
(** Figure 16 rendering: iterators as blue ellipses, derived variables as
    grey boxes, constraints as red octagons.
    @raise Error if the space does not validate. *)
