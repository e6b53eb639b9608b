(** Search-quality analytics over one run's trace.

    Answers the questions the ABONN paper's adaptive-exploration story
    raises but a {!Summary} table cannot: how much of the tree was
    wasted work, where in the tree the UCB policy explored vs
    exploited, how well a node's Def.&nbsp;1 reward predicted its
    subtree, and — given a second trace of the same instance — where
    two policies stopped making the same decisions.

    Tree-derived metrics (wasted work, reward-prediction error) need
    only the ordinary [node_evaluated] stream; the balance table is fed
    by [ucb_decision] introspection events and is empty for traces
    recorded without [--introspect].  Engine, verdict and node count are
    the run model's ({!Summary}), and visit orders are compared by its
    visit rule ({!Summary.common_prefix}), as [diff] compares them. *)

type depth_balance = {
  depth : int;
  decisions : int;  (** [ucb_decision] events with finite terms at this depth *)
  mean_exploit : float;  (** mean reward term of the chosen child *)
  mean_explore : float;  (** mean UCB exploration bonus of the chosen child *)
  flips : int;
      (** decisions where exploration overrode exploitation: the chosen
          child had the {e worse} reward of the two *)
}

type reward_error = {
  depth : int;
  pairs : int;  (** interior nodes with a finite reward and finite best child *)
  mean_abs_err : float;  (** mean |best child reward - node reward| *)
  bias : float;  (** signed mean; [> 0] = rewards underestimate subtrees *)
}

type divergence = {
  common_prefix : int;  (** leading visits both traces share *)
  first_divergence : int option;
      (** 0-based index of the first differing visit; [None] when one
          visit sequence is a prefix of the other *)
  jaccard : float;  (** visit-set overlap, 1.0 = same nodes visited *)
  only_a : int;  (** nodes visited only by the first trace *)
  only_b : int;  (** nodes visited only by the second trace *)
}

type t = {
  engine : string;
  verdict : string option;
  nodes : int;
      (** the run's tree nodes ({!Summary.run}): for bab-baseline and
          inputsplit these include the children still queued, so they
          are printed as [tree nodes], never as nodes evaluated *)
  wasted : int;
      (** falsified runs: evaluated nodes off every root-to-counterexample
          path; verified runs: [0] (every subtree had to be proved) *)
  wasted_frac : float;  (** [wasted / nodes]; [nan] when unattributable *)
  open_frac : float;  (** share of leaves still open when the run stopped *)
  balance : depth_balance list;  (** per depth, ascending; [[]] without introspection *)
  reward_err : reward_error list;  (** per depth, ascending *)
  branch_decisions : int;  (** [branch_decision] events seen *)
  branch_margin : float;
      (** mean winner-vs-runner-up score margin; [nan] without data *)
  divergence : divergence option;  (** only with [?vs] *)
}

val of_events :
  ?vs:Abonn_obs.Event.envelope list -> Abonn_obs.Event.envelope list -> t
(** Analyse one run's segment.  [?vs] is a second run's segment to
    compare visit order against ([abonn_trace explain --vs]). *)

val to_string : t -> string
(** Human-readable report. *)
