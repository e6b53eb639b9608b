(** Live-run view behind [abonn_trace watch] and the [--progress]
    heartbeat.

    Feed the envelopes of a (possibly still growing) trace in order —
    typically from {!Reader.tail_poll} — and {!render} a snapshot at any
    point.  The run's numbers (engine, verdict, calls, nodes, max depth,
    frontier, best reward, depth profile) are the current run's
    {!Summary} model, the same that [summary] prints, so a finished run
    shows the engine's own totals.  The monitor adds only what a live
    view needs: a recent-window node rate, the phase split so far (a
    {!Spans} model: unnested AppVer, exact-leaf LP and top-level attack
    time against the capacity, the last event time times the run's
    domains) and the resource (memory) curve from [resource_sample]
    events. *)

type t

val create : unit -> t

val feed : t -> Abonn_obs.Event.envelope -> unit
(** A run that has ended is replaced by a fresh model when the next
    run's first envelope arrives ({!Summary.starts}). *)

val finished : t -> bool
(** The current run has ended ({!Summary.closed}). *)

val nodes_per_sec : t -> float
(** Node throughput over the last ~5 seconds of trace time ([0.] until
    two visits are in the window). *)

val render : ?width:int -> ?calls_budget:int -> t -> string
(** Multi-line dashboard: totals, node rate, best reward, phase split,
    memory curve (sparkline over the [resource_sample] RSS values), and
    the visit depth histogram.  With [calls_budget] (the run's
    [--calls]) an ETA line extrapolates from the current node rate. *)

val progress : ?out:out_channel -> ?every:float -> unit -> Abonn_obs.Sink.t
(** Single-line live heartbeat for long runs: the current run's
    elapsed trace time, AppVer calls, nodes, max depth and best reward
    (plus the harness runs finished so far, [runs=N], when there are
    any), rewritten as one [\r]-terminated line on [out] (default
    [stderr]) at most once per [every] seconds (default 2; non-positive
    values clamp to 0.1) of trace time, flushing after each heartbeat.
    [close] prints the final line and a newline.  Installs like any
    sink, so runs without it keep the single-branch overhead guarantee. *)
