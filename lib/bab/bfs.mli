(** BaB-baseline: breadth-first branch-and-bound (§III, §V).

    The naive strategy the paper compares against: sub-problems are
    visited in first-come-first-served order.  Each visited node gets
    the shared {!Expand.visit} step: one AppVer call; a positive bound
    prunes it, a validated counterexample terminates the run, and
    otherwise the node is split on the ReLU chosen by the branching
    heuristic, appending both children to the FIFO queue.  An exhausted
    queue proves the property. *)

val verify :
  ?appver:Abonn_prop.Appver.t ->
  ?heuristic:Branching.t ->
  ?budget:Abonn_util.Budget.t ->
  ?domains:int ->
  Abonn_spec.Problem.t ->
  Result.t
(** Defaults: DeepPoly AppVer, DeepSplit heuristic, unlimited budget,
    [domains = Abonn_par.Pool.default_domains ()] (the [ABONN_DOMAINS]
    environment variable, else 1).  Returns [Timeout] when the budget
    trips before the queue empties.

    [domains = 1] is the sequential FIFO engine.  [domains > 1] shards
    the frontier across a work-stealing domain pool ([Parfrontier]): the
    verdict is unchanged on complete runs, but the FIFO visit order is
    not preserved — see docs/PARALLELISM.md for the full determinism
    contract.  Metrics are [bfs.*] at any domain count. *)

val verify_with_certificate :
  ?appver:Abonn_prop.Appver.t ->
  ?heuristic:Branching.t ->
  ?budget:Abonn_util.Budget.t ->
  ?domains:int ->
  Abonn_spec.Problem.t ->
  Result.t * Certificate.t option
(** Like [verify], additionally returning the discharged-leaf
    certificate when the verdict is [Verified] (see [Certificate]).
    With [domains > 1] the leaf {e order} is scheduling-dependent; the
    leaf {e set} still partitions the split space, which is all
    [Certificate.check] requires. *)

val search : Expand.t -> domains:int -> 'a Expand.item -> 'a Expand.visit -> Result.t
(** The breadth-first frontier over any work item, from one root item:
    a FIFO queue at [domains = 1], [Parfrontier.run] above.  Every item
    taken is popped ({!Expand.popped}) and visited; the run ends at the
    first counterexample, an exhausted budget or an empty frontier.
    [Inputsplit] runs its region queue on it. *)
