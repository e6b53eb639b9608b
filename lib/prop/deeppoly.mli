(** DeepPoly / CROWN-style linear bound propagation with back-substitution.

    This is the approximate verifier used by the paper's BaB stack ([7],
    [16] in its references).  For each hidden layer the pre-activation
    vector is bounded by propagating symbolic linear bounds back to the
    input box; unstable ReLUs are replaced by the triangle relaxation
    (upper: [u/(u−l)·(ẑ−l)]) with the per-neuron minimum-area lower
    slope: 1 when [u > −l], else 0 — the DeepPoly choice, and the greedy
    optimum of α-CROWN's per-coefficient selection for one pass.

    The layer bounds are [Bounds.forward]'s refinement: it intersects
    them per neuron with plain forward interval bounds (CROWN-IBP style:
    on deep networks neither dominates the other, and production
    verifiers keep the tighter of the two), folds the split constraints
    in, and short-circuits infeasible splits into a vacuously proved
    outcome.  Consequently [run] is always at least as tight as
    [Interval.run].

    The candidate counterexample is the input-box corner minimising the
    final symbolic lower bound of the worst property row — exactly the
    point an LP over the same relaxation would return at a vertex. *)

val run :
  Abonn_spec.Problem.t ->
  Abonn_spec.Split.gamma ->
  Outcome.t
(** Full analysis: hidden-layer bounds, property-row lower bounds [p̂],
    candidate counterexample.  Exactly [run_warm] without a state, with
    the returned state dropped. *)

val hidden_bounds :
  Abonn_spec.Problem.t ->
  Abonn_spec.Split.gamma ->
  Bounds.t array option
(** Just the per-layer pre-activation bounds ([None] when the splits are
    infeasible).  Used by branching heuristics and tests. *)

val run_warm :
  ?state:Incremental.t ->
  Abonn_spec.Problem.t ->
  Abonn_spec.Split.gamma ->
  Outcome.t * Incremental.t option
(** Warm-started analysis reusing a parent node's {!Incremental.t}:
    layers below the split layer are shared verbatim (O(1) aliasing),
    the rest is re-propagated and intersected with the parent's bounds
    (monotone tightening — never looser than [run], and identical to it
    whenever no parent bound is strictly tighter than the recomputed
    one).  With [?state] absent or incompatible this is the
    from-scratch analysis plus the construction of a fresh state.  Returns the node's own
    state for its children; [None] when the sub-problem was infeasible.
    DeepPoly's one instrumented entry point: one [bound_computed] event
    and the [appver.<name>] counter and span per call, plus one
    [bound_reuse] event and the [appver.cache.*] counters when the state
    was reused; [appver.cache.tighten_clamps] counts the bounds and rows
    the parent's tightened. *)

val analyse_warm :
  ?state:Incremental.t ->
  Abonn_spec.Problem.t ->
  Abonn_spec.Split.gamma ->
  Outcome.t * Incremental.t option
(** [run_warm] without instrumentation: the same analysis and state, no
    counters, spans or events.  For verifiers that build on DeepPoly's
    bounds and report the call as their own. *)
