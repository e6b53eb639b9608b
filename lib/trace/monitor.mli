(** Live-run aggregation and terminal dashboard behind
    [abonn_trace watch].

    Feed the envelopes of a (possibly still growing) trace in order —
    typically from {!Reader.tail_poll} — and {!render} a snapshot at any
    point.  Unlike {!Summary} this is approximate by design: it keeps
    running totals, a depth histogram, a recent-window node rate, the
    phase split so far and the resource (memory) curve from
    [resource_sample] events.  The phase split is a {!Spans} model:
    unnested AppVer, exact-leaf LP and top-level attack time against
    the capacity, the last event time times the domains seen. *)

type t

val create : unit -> t

val feed : t -> Abonn_obs.Event.envelope -> unit

val finished : t -> bool
(** A terminating event arrived: [run_finished], or [verdict_reached]
    outside a harness bracket. *)

val nodes_per_sec : t -> float
(** Node throughput over the last ~5 seconds of trace time ([0.] until
    two node events are in the window). *)

val render : ?width:int -> ?calls_budget:int -> t -> string
(** Multi-line dashboard: totals, node rate, best reward, phase split,
    memory curve (sparkline over the [resource_sample] RSS values), and
    a depth histogram.  With [calls_budget] (the run's [--calls]) an
    ETA line extrapolates from the current call rate. *)
