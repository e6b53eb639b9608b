(** ABONN — Adaptive BaB with Order for Neural Network verification.

    Faithful implementation of the paper's Alg. 1: the BaB tree is grown
    MCTS-style, guided by the counterexample potentiality of Def. 1.

    - {b Initialisation}: the root problem gets one AppVer call; a
      positive bound or a validated counterexample concludes immediately.
    - {b Selection}: at an expanded node, the child maximising
      [R(child) + c·sqrt(2·ln |T(node)| / |T(child)|)] (UCB1, Line 13) is
      descended into; proved sub-trees carry reward −∞ and are never
      re-entered.
    - {b Expansion}: at an unexpanded node, the heuristic [H] picks a
      ReLU, both children get AppVer calls, their potentialities become
      their rewards.
    - {b Back-propagation}: rewards are max-combined and sub-tree sizes
      summed along the path back to the root (Lines 20–21) — including
      after recursive selection returns, so the root's reward is the
      exact max over the frontier.
    - {b Termination}: root reward +∞ ⇒ [Falsified]; −∞ ⇒ [Verified];
      exhausted budget ⇒ [Timeout].

    Each node gets the node step every engine shares
    ([Abonn_bab.Expand]): one warm AppVer call, with the candidate of
    an unproved node validated, and the chooser's split.
    Fully-stabilised leaves (no splittable ReLU, yet an invalidated
    negative bound) are decided exactly under the node's own bounds
    ([Abonn_bab.Exact]), preserving completeness.  This module keeps
    only the UCB1 tree policy. *)

val verify :
  ?config:Config.t ->
  ?budget:Abonn_util.Budget.t ->
  ?trace:(depth:int -> gamma:Abonn_spec.Split.gamma -> reward:float -> unit) ->
  ?domains:int ->
  Abonn_spec.Problem.t ->
  Abonn_bab.Result.t
(** [trace] is invoked at every node expansion with the new child's
    reward (used by the test suite to observe the exploration order).
    Internally it is an [Abonn_obs] sink over this engine's
    [node_evaluated] events; richer telemetry (selection, backprop,
    exact-leaf and verdict events, counters, timers) is available by
    installing a sink via [Abonn_obs.Obs.install] — see
    [docs/TRACE_SCHEMA.md].

    [domains] defaults to [Abonn_par.Pool.default_domains ()] (the
    [ABONN_DOMAINS] environment variable, else 1).  [domains = 1] is
    the sequential engine.  Because a UCB1 descent is inherently
    sequential, [domains > 1] parallelises at the sub-tree level: after
    the same root set-up, a breadth-first seed phase grows the tree
    until the frontier holds [2 × domains] undecided nodes, then each
    sub-tree gets an independent MCTS search as a work-stealing pool
    item.  Verdicts of complete runs are unchanged; the exploration
    order (and under the [Uniform_random] ablation the per-sub-tree
    random streams, split per domain) is scheduling-dependent — see
    docs/PARALLELISM.md. *)
