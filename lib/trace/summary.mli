(** The run model: one engine run's statistics, reconstructed from its
    trace events.

    A trace file holds one engine run (CLI [--trace]) or a whole sweep
    (harness traces, delimited by [run_started]/[run_finished]).  The
    model is fed one run's events one at a time ({!create}, {!feed},
    {!run}; {!of_events} is their fold) and owns every number a reader
    prints about the run: where it starts and ends, its engine, verdict,
    AppVer calls, nodes, max depth, frontier, best reward and visit
    depth profile, and the visit sequence two runs are compared by.
    [summary], [watch], [curve], [tree], [explain], [diff] and the
    [--progress] heartbeat print these numbers instead of recounting.
    The model's memory does not grow with the number of events, except
    for ABONN's open-leaf set.

    Counting rules:

    - calls: [abonn] node_evaluated + exact_leaf; [bab-baseline]
      frontier_pop + exact_leaf; every other engine bound_computed +
      exact_leaf.
    - nodes and max depth: every engine's [resource_sample] carries its
      own totals, including the children pushed after the last pop,
      which no other event shows.  The model takes the last sample's
      totals plus what the events since add: nodes by the engine's
      formula ([abonn] node_evaluated; [bab-baseline] and [inputsplit]
      pops plus the frontier after the last pop; [bestfirst] and
      [ab-crown] bound_computed; otherwise the largest of the three),
      depth by the deepest event.  Every finish path samples after its
      last node, so a finished run reads the engine's own totals; a run
      with no sample reads the formulas alone.
    - frontier: the queue or heap length the last [frontier_pop] left,
      or for ABONN the evaluated nodes with a finite reward and no child
      yet (open leaves, from the gamma strings).
    - best reward: the largest [node_evaluated] reward (Def. 1
      potentiality) or finite [frontier_pop] priority; [+inf] once an
      exact leaf is falsified; [nan] before either.
    - depth profile: visits per depth.

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
  frontier : int;  (** open nodes (module doc) *)
  best_reward : float;
  depth_counts : int array;
      (** [depth_counts.(d)] = visits at depth [d], for [d] in
          [0 .. max_depth] *)
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

(** {1 The model} *)

type t
(** One run being fed. *)

val create : unit -> t

val feed : t -> Abonn_obs.Event.envelope -> unit

val run : t -> run
(** The run as the events fed so far show it. *)

val of_events : Abonn_obs.Event.envelope list -> run
(** Feed one segment to a fresh model. *)

val closed : t -> bool
(** The run has ended: a [run_finished], or a [verdict_reached] outside
    a harness bracket. *)

val starts : t -> Abonn_obs.Event.envelope -> bool
(** The envelope opens a new run instead of continuing this one: the
    model holds events and is {!closed}, or the envelope is a
    [run_started]. *)

(** {1 Segments} *)

val segments : Abonn_obs.Event.envelope list -> Abonn_obs.Event.envelope list list
(** Cut a trace into per-run event lists at the model's boundaries
    ({!starts}).  Every event belongs to exactly one segment; a trace
    with no boundary events is a single segment. *)

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

(** {1 Visits} *)

val root_gamma : string
(** ["ε"] (UTF-8), the gamma string of the unsplit root. *)

val parent_gamma : string -> string option
(** Drop the last path component: the parent of ["r3+.r17-"] is
    ["r3+"], of a single token the root; [None] for the root. *)

type visit = { gamma : string option; depth : int }
(** One node visit: ABONN's [node_evaluated] (with its gamma) or a
    baseline's [frontier_pop] (depth only). *)

val visits : Abonn_obs.Event.envelope list -> visit list

val common_prefix : visit list -> visit list -> int * (visit * visit) option
(** The number of leading visits two sequences share, and the first
    pair that differs; [None] when one sequence is a prefix of the
    other.  Two visits are the same node by gamma when both carry one,
    else by depth. *)

val progress : Abonn_obs.Event.t -> bool
(** A search-progress event: a visit, an exact leaf or a verdict. *)
