(** BaB-tree reconstruction from a trace.

    ABONN serialises every evaluated sub-problem Γ into its
    [node_evaluated] event (the gamma string, TRACE_SCHEMA §1.3), and a
    gamma names the whole root-to-node path — so the tree is recoverable
    from the events alone ({!Summary.parent_gamma}).  Baseline traces
    ([frontier_pop], no gamma) cannot be rebuilt as a tree; for those
    {!build} returns no root.  The shape's node count, max depth and
    visit depth profile are the run model's ({!Summary}), for every
    engine.

    Leaf status is read off the Def. 1 reward recorded at evaluation
    time: [-inf] proved, [+inf] counterexample, finite = still open
    (the frontier when the trace stopped). *)

type node = {
  gamma : string;  (** full path string, e.g. ["r3+.r17-"] *)
  token : string;  (** last path component, ["ε"] for the root *)
  depth : int;
  phat : float;
  reward : float;  (** reward at evaluation time *)
  seq : int;  (** [seq] of the node's [node_evaluated] event *)
  mutable children : node list;  (** in evaluation order *)
}

type shape = {
  nodes : int;  (** the run's nodes ({!Summary.run}) *)
  max_depth : int;
  depth_counts : int array;  (** [depth_counts.(d)] = visits at depth [d] *)
  interior : int;
  leaves_proved : int;
  leaves_cex : int;
  leaves_open : int;
  exact_verified : int;  (** [exact_leaf] events (not attachable: no gamma) *)
  exact_falsified : int;
  orphans : int;  (** nodes whose parent never appeared (truncated trace) *)
}

type t = { root : node option; shape : shape }

val build : Abonn_obs.Event.envelope list -> t
(** Reconstruct from one run's events.  [root = None] when no
    [node_evaluated] event carries the root gamma. *)

val shape_to_string : shape -> string
(** Shape statistics plus an ASCII depth histogram. *)

val render_ascii : ?max_nodes:int -> node -> string
(** Indented rendering, children in evaluation order; stops after
    [max_nodes] (default 200) and prints an ellipsis with the count of
    suppressed nodes. *)

val render_dot : ?max_nodes:int -> node -> string
(** Graphviz DOT: one box per node labelled with token, p̂ and reward;
    proved leaves green, counterexample leaves red, open leaves yellow.
    Default [max_nodes] 2000. *)
