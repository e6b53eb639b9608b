(** Exact resolution of fully-stabilised BaB leaves.

    When a node has no splittable ReLU left (every unit is stable under
    its bounds or fixed by Γ), the network restricted to the node is
    affine, and the node's LP relaxation is *exact*: its feasible set is
    precisely [{x ∈ Φ : Γ(x)}] and its optimum is the true minimum
    margin.  Such leaves are therefore decided by one small LP per
    property row over the input box instead of being split forever: a
    positive optimum certifies the leaf, a negative one yields a genuine
    counterexample (the LP minimiser).

    The phase pattern comes from the leaf's own bounds — the ones the
    engine computed for the node, parent-tightened by the bound cache
    (DESIGN.md §9) — so a leaf the branching heuristic found fully
    stable is decided under exactly those bounds.  Every LP goes through
    [Lp_verifier.observed_solve] and shows up in the [lp.*] counters,
    span and [lp_solved] events. *)

exception Unresolvable of string
(** Raised when the bounds still leave a ReLU outside Γ unstable (the
    node is not a fully-stabilised leaf), when a leaf LP hits its pivot
    limit, or if an LP reports a clearly negative optimum (< −1e−7)
    whose minimiser nevertheless fails concrete validation; none of
    these is expected from an engine.  Ties (margin exactly 0) are
    settled by concrete validation and count as violations, consistent
    with [Abonn_spec.Property.violated]. *)

val resolve :
  ?pre_bounds:Abonn_prop.Bounds.t array ->
  Abonn_spec.Problem.t ->
  Abonn_spec.Split.gamma ->
  [ `Verified | `Falsified of float array ]
(** [resolve ~pre_bounds problem gamma] decides the leaf Γ whose sound
    per-layer pre-activation bounds are [pre_bounds] (typically the
    node's [Outcome.pre_bounds]).  Γ's phases are clamped into them
    first; a clamp that empties a layer makes the leaf vacuously
    [`Verified].  Without [pre_bounds] (or when they do not cover every
    hidden layer, as from an AppVer that reports none) the leaf is
    bounded from scratch with [Abonn_prop.Deeppoly.hidden_bounds], which
    always stabilises a Γ that fixes every ReLU.  Raises
    {!Unresolvable} if the bounds are not fully stable. *)
