(** Per-run statistics reconstructed from a trace.

    A trace file holds one engine run (CLI [--trace]) or a whole sweep
    (harness traces, delimited by [run_started]/[run_finished]).
    {!segments} cuts the event stream into runs; {!of_events} replays
    one run's events and rebuilds the statistics the engine itself
    reported — verdict, AppVer calls, nodes, max depth, wall time —
    from the event stream alone.

    Calls are rebuilt from events:

    - [abonn]: node_evaluated + exact_leaf;
    - [bab-baseline]: frontier_pop + exact_leaf;
    - [bestfirst], [inputsplit] and unknown engines: bound_computed +
      exact_leaf.

    Nodes and max depth come from the segment's last [resource_sample]:
    every engine's finish path takes one, carrying the engine's own
    totals — including the children pushed after the last pop, which
    no other event shows.  Without a sample they fall back to event
    formulas (abonn: node_evaluated; bab-baseline: pops plus the
    frontier after the last pop; bestfirst: bound_computed; depth: the
    deepest event), which can undercount a run whose last node split.

    Harness traces carry the ground truth in [run_finished]; it is kept
    in [reported] so consumers can cross-check the reconstruction. *)

type reported = {
  verdict : string;
  calls : int;
  nodes : int;
  max_depth : int;
  wall : float;
}

type domain_stat = {
  domain : int;
  processed : int;  (** work items, from [domain_summary] *)
  pushed : int;
  stolen : int;
  idle : int;
  events : int;  (** envelopes tagged with this domain in the segment *)
}
(** Per-worker attribution of a parallel ([--domains N > 1]) run,
    merged from the run's [domain_summary] events and the envelope
    [domain] tags (schema §2.14). *)

type pair_check = { kind : string; total : int; mismatch : int }
(** Integrity of one annotation family over the segment.  Annotation
    events are emitted immediately after the event they explain:
    [ucb_decision] after its [node_selected], [frontier_decision] after
    its [frontier_pop], [bound_reuse] after its [bound_computed];
    [branch_decision] names the depth of the node last focused by its
    engine.  [mismatch] counts adjacency violations, plus — in fully
    sampled ([--introspect 1]) traces — eligible hosts that went
    unannotated.  Mismatch counts are zeroed for parallel segments,
    whose interleaving is scheduling-dependent.  Families with no
    events in the segment are omitted. *)

type run = {
  engine : string;  (** ["?"] when the segment has no engine-bearing event *)
  instance : string option;  (** from [run_started] (harness traces only) *)
  verdict : string option;  (** from [verdict_reached] / [run_finished] *)
  calls : int;  (** reconstructed AppVer calls *)
  nodes : int;  (** reconstructed BaB-tree size *)
  max_depth : int;
  wall : float;  (** engine seconds ([verdict_reached]), else event-time span *)
  events : int;  (** envelopes in this run's segment *)
  composite : bool;
      (** the bracket wraps events from a different engine — one wrapper
          run containing whole engine runs (e.g. an [abonn_fuzz] case
          whose oracles run several engines inside).  Per-engine
          reconstruction does not apply, so verdict/calls/nodes/depth
          come from the wrapper's [run_finished] report. *)
  domains : int;
      (** worker domains that left a mark on this segment (envelope tags
          or [domain_summary] events); [0] for sequential traces.  When
          [> 1] the segment's interleaving is scheduling-dependent, so —
          like [composite] — verdict/calls/nodes/depth are taken from
          the engine's own report when one is present. *)
  domain_stats : domain_stat list;  (** per-domain rows, in domain order *)
  pairs : pair_check list;
      (** annotation pair-integrity, one row per family present *)
  reported : reported option;  (** the [run_finished] payload, if any *)
}

val segments : Abonn_obs.Event.envelope list -> Abonn_obs.Event.envelope list list
(** Cut a trace into per-run event lists.  Boundaries: a [run_started]
    opens a run (closing any implicit one); [run_finished] closes it;
    in CLI traces (no harness events) [verdict_reached] closes the run.
    Every event belongs to exactly one segment; a trace with no
    boundary events is a single segment. *)

val of_events : Abonn_obs.Event.envelope list -> run
(** Reconstruct one run from one segment. *)

val runs : Abonn_obs.Event.envelope list -> run list
(** [List.map of_events (segments events)]. *)

val consistent : run -> bool
(** When [reported] is present: does the reconstruction agree on
    verdict, calls, nodes and max depth? [true] when nothing was
    reported. *)

val pairs_ok : run -> bool
(** No annotation family has pair mismatches (vacuously [true] when the
    segment carries no annotations). *)

val to_string : run list -> string
(** Render runs as an aligned table, flagging reconstructed-vs-reported
    mismatches. *)
