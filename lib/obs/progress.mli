(** Throttled progress line for long enumerations: a renderer over the
    run's {!Tally}.

    Redraws a single carriage-return status line (points enumerated,
    survivors, rate, chunks, completed fraction and ETA) at most once
    per [interval_s]. The ETA is the tally's pruning-aware chunk
    estimate when the scheduler reports chunks, else it extrapolates
    from the completed fraction.

    When [out] is not a tty the carriage-return redraw is skipped and
    the reporter prints plain newline-terminated lines instead, at a
    slower default cadence, so redirected logs stay readable. *)

type t

val create :
  ?interval_s:float -> ?out:out_channel -> ?tty:bool -> Tally.t -> t
(** Watch the tally. [out] defaults to [stderr]; [tty] to
    [Unix.isatty] on [out]; [interval_s] to 0.2 on a tty and 2.0
    otherwise. *)

val finish : t -> unit
(** Draw a final line and terminate it with a newline (only if anything
    was ever drawn). *)
