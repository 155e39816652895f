(** The one progress tally of a run.

    Engines feed it through [Obs.progress_tick] (latest point and
    survivor counts per domain, plus the outermost-loop fraction when
    known) and the parallel scheduler through [Obs.chunk_tick]
    (completed/total chunks). Renderers — the terminal line of
    {!Progress} and the heartbeat file of {!Status} — {!watch} it, each
    with its own throttle, and read one {!snapshot} per draw. *)

type t

val create : unit -> t
(** The elapsed-time clock starts here. *)

type snapshot = {
  points : int;  (** summed over domains *)
  survivors : int;
  frac : float option;
      (** completed fraction: chunks done/total when the scheduler
          reports chunks, else the mean outer-loop fraction of the
          domains that know theirs *)
  elapsed_s : float;
  chunks_done : int;
  chunks_total : int;  (** 0 when no chunk was ever reported *)
  eta_s : float option;
      (** pruning-aware ETA: remaining chunks priced at the mean wall
          time of the chunks completed this run (chunks restored from a
          checkpoint are excluded from the observed throughput) *)
  domains : (int * int * int) list;
      (** [(dom, points, survivors)], sorted by domain id *)
}

val tick : t -> dom:int -> points:int -> survivors:int -> frac:float -> unit
(** Record domain [dom]'s latest counts ([frac < 0] when unknown), then
    draw every watcher whose throttle has elapsed. Thread-safe. *)

val chunk_tick : t -> completed:int -> total:int -> unit
(** Record chunk completion (the count only ever grows; the first tick
    sets the checkpointed base), then draw due watchers. Thread-safe. *)

val watch : t -> every_s:float -> (snapshot -> unit) -> unit
(** Register a renderer, drawn on the first tick and then at most once
    per [every_s] (0 draws on every tick). Draws are serialized with
    each other and with {!draw}. *)

val draw : t -> (snapshot -> unit) -> unit
(** Call the renderer with a fresh snapshot now, bypassing throttles
    (final lines, final status writes). *)
