(** Input-domain branch-and-bound (ReluVal/Neurify-style).

    Instead of fixing ReLU phases, this engine bisects the *input box*:
    each sub-region gets one AppVer call (with an empty split sequence),
    proved regions are pruned, candidate counterexamples are validated,
    and undecided regions are cut in half along a chosen dimension.
    Complete for any sound AppVer because boxes shrink to points.

    Input splitting shines on low-dimensional inputs (the classic
    ACAS-Xu setting) and degrades with dimension — the opposite profile
    of ReLU splitting, which is why production verifiers carry both.
    The test suite cross-checks its verdicts against the ReLU-split
    engines on 2-D problems. *)

type strategy =
  | Widest  (** bisect the widest input dimension *)
  | Gradient_weighted
      (** bisect the dimension maximising width × |∂margin/∂x| at the
          region centre — a smear-style heuristic *)

val verify :
  ?appver:Abonn_prop.Appver.t ->
  ?strategy:strategy ->
  ?budget:Abonn_util.Budget.t ->
  ?min_width:float ->
  ?domains:int ->
  Abonn_spec.Problem.t ->
  Result.t
(** Defaults: DeepPoly, [Gradient_weighted], unlimited budget,
    [min_width = 1e-6], [domains = Abonn_par.Pool.default_domains ()]
    (the region queue is {!Bfs.search}: a FIFO queue at [domains = 1];
    [> 1] shards it across a work-stealing domain pool — same verdict
    on complete runs, scheduling-dependent visit order, see
    docs/PARALLELISM.md).  Both run one visit per region, with the
    shared {!Expand} bookkeeping: [frontier_pop] and [verdict_reached]
    events and [inputsplit.pop] / [inputsplit.depth] metrics.  A region
    narrower than [min_width] in every
    dimension that still resists proving is checked concretely at its
    centre: a violation there concludes [Falsified]; otherwise the box
    is left unresolved and a final all-other-boxes-proved result is
    reported as [Timeout] rather than [Verified] — margins that touch 0
    on a null set (ties) cannot be decided by bisection. *)
