(** Render single-pass pruning provenance as the [beast explain]
    report.

    Four sections, all computed from one instrumented sweep's
    statistics file (or the merge of a complete shard set):

    - the {e constraint waterfall}: constraints in evaluation order,
      each with its rejection depth, firing count and the exact number
      of full points it removed, plus the running count of points still
      alive after it;
    - {e cost vs selectivity}: when the file also carries metrics, each
      constraint's total evaluation time joined with its removal count;
      adjacent pairs that violate the cheapest-most-selective-first
      ordering (the classic predicate-ordering rule: sort by removals
      per unit cost) are flagged as misplaced;
    - the top-[k] {e dead outer-coordinate ranges}: maximal runs of
      consecutive outermost-iterator values whose subtrees yielded no
      survivor, ranked by how many points were removed under them —
      where a tuner could cut the space wholesale;
    - the per-depth {e survival funnel}: loop entries at each depth and
      the survivor count, with bars.

    The waterfall and cost table render {!Stats.of_run}'s rows, so the
    input must carry a ["provenance"] section (sweep with
    [--explain-out]); {!write} returns [Error] with {!Stats.of_run}'s
    one-line diagnostic otherwise. *)

val write :
  ?top:int -> Format.formatter -> Stats_io.t -> (unit, string) result
(** [write ~top ppf stats] renders the report; [top] bounds the
    dead-range table (default 5). [Error] exactly when
    {!Stats.of_run} refuses [stats]. *)
