(** Parameter iterators — the core abstraction of the BEAST language
    (paper Section V).

    Three kinds map onto the paper's taxonomy:

    - {b expression / deferred iterators} are {!constructor-Range} with
      expression-valued bounds ([range(dim_m, max_threads+1, dim_m)] from
      Figure 4 becomes a [Range] whose bounds mention [dim_m]). The paper
      distinguishes "expression" from "deferred" only by Python's
      definition-order restrictions; our builder resolves order through the
      dependency DAG, so every iterator enjoys deferred semantics.
    - {b closure iterators} ({!constructor-Closure}) carry an arbitrary
      OCaml generator with an explicit dependency list — the analogue of
      Figure 3's prime generator, whose Python argument list names its
      dependencies.
    - the {b iterator algebra} of Section VIII (union, intersection,
      concatenation, map, filter) composes any of the above.

    Every iterator yields values smallest-structure-first exactly as the
    defining construct dictates; ranges honour negative steps
    (Figure 5 uses [range(x, 0, -1)]). *)

type gen = {
  gen_deps : string list;
      (** names this generator reads via the lookup; in a space, its
          lookup answers no other name ({!Space.iterator}) *)
  generate : Expr.lookup -> Value.t Seq.t;
}

type t =
  | Range of Expr.t * Expr.t * Expr.t
      (** [Range (start, stop, step)]; [stop] is exclusive, as in Python. *)
  | Values of Value.t list
  | Closure of gen
  | Union of t * t      (** sorted set union *)
  | Inter of t * t      (** sorted set intersection *)
  | Concat of t * t     (** left-to-right concatenation *)
  | Map of (Value.t -> Value.t) * t
  | Filter of (Value.t -> bool) * t

(** {1 Constructors} *)

val range : ?step:Expr.t -> Expr.t -> Expr.t -> t
(** [range ?step start stop] — default step 1. *)

val range_i : ?step:int -> int -> int -> t
(** Integer-literal convenience. *)

val upto : Expr.t -> t
(** [upto stop] = [range (int 0) stop] — Python's [range(n)]. *)

val values : Value.t list -> t
val ints : int list -> t
val single : Expr.t -> t
(** A one-value iterator: the paper's deferred iterators may [return 1]
    instead of a range (Figure 11, [dim_vec]). *)

val closure : deps:string list -> (Expr.lookup -> Value.t Seq.t) -> t
val of_list_fn : deps:string list -> (Expr.lookup -> Value.t list) -> t

(** {1 Algebra} *)

val union : t -> t -> t
val inter : t -> t -> t
val concat : t -> t -> t
val map : (Value.t -> Value.t) -> t -> t
val filter : (Value.t -> bool) -> t -> t

(** {1 Analysis and evaluation} *)

val deps : t -> string list
(** Sorted free names: expression variables of ranges plus declared
    generator deps, across the whole algebraic term. *)

val materialize : Expr.lookup -> t -> Value.t array
(** Evaluate the iterator under an environment binding all of its
    {!deps}. Ranges with a zero step raise [Expr.Eval_error]. Union and
    intersection sort and deduplicate; concat, map and filter preserve
    order. *)

val is_static : t -> bool
(** True when [deps] is empty once settings are folded — such iterators
    can be tabulated by the C generator even if closure-backed. *)

val cardinality : Expr.lookup -> t -> int
(** Length of {!materialize} without building the array when possible. *)

val pp : Format.formatter -> t -> unit
