(** Radial, space-filling visualization of the pruning process — an SVG
    reimplementation of the technique the BEAST project presented at
    VISSOFT'14 (paper reference [7]): each ring corresponds to one
    pruning constraint, in evaluation order from the centre outwards; the
    surviving fraction stays coloured while the arc each constraint
    removes is greyed out, so the reader "gains a better understanding of
    how the pruning constraints remove candidates from the search
    space". *)

val svg : ?size:int -> Stats.funnel -> string
(** Render the funnel as a standalone SVG document. Requires a funnel
    with exact attribution ({!Stats.funnel}); rings for rows with
    [removed = None] are rendered with a hatched legend note instead of
    an arc split. [size] is the image edge in pixels (default 480). *)

val html_report : ?title:string -> Stats.funnel -> string
(** The SVG embedded in a minimal HTML page with a legend table. The
    summary line gives the point total only when the funnel is
    {!Stats.exact}, as {!Stats.pp} does. *)

val scatter_svg :
  ?size:int ->
  ?x_label:string ->
  ?y_label:string ->
  ?highlight:(float * float) list ->
  (float * float) list ->
  string
(** A scatter plot as a standalone SVG — used by the energy-trade-off
    study (paper reference [4]) to draw survivors in the
    performance/efficiency plane with the Pareto front highlighted. *)
