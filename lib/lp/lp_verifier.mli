(** LP-based approximate verifier over the triangle relaxation.

    Encodes the (split-constrained) network as the standard LP relaxation
    — exact affine layers, triangle-relaxed unstable ReLUs — and minimises
    each property row with the bounded-variable simplex {!Boxlp}.  This
    is the tightest AppVer in the repository (it reasons about all
    neurons jointly, where [Abonn_prop.Deeppoly] commits to one linear
    bound per neuron), at a much higher per-call cost; the paper's
    pipeline reserves LP-grade reasoning for the solver backend and we
    use this engine as a cross-check oracle in tests and as an optional
    AppVer for small networks.

    There is one encoding: every hidden neuron contributes the same
    variables and rows whatever its stability state, so the LP's layout
    depends on the architecture alone and a parent node's optimal basis
    can warm-start any child of the same tree (DESIGN.md §13).

    The candidate counterexample is the input part of the LP minimiser —
    a vertex of the relaxation, mirroring what a Gurobi-backed BaB
    implementation validates. *)

val run_warm :
  ?state:Abonn_prop.Incremental.t ->
  Abonn_spec.Problem.t ->
  Abonn_spec.Split.gamma ->
  Abonn_prop.Outcome.t * Abonn_prop.Incremental.t option
(** Analyse one node.  Pre-activation bounds come from
    [Abonn_prop.Deeppoly], reusing the parent's [state] through the
    DeepPoly incremental machinery, and are part of the returned
    outcome, as for every AppVer.  The first property row is re-solved
    by dual simplex from the parent's cached optimal basis
    ({!Boxlp.solve_warm}); without a parent, or when the replay degrades
    (incompatible state, cache miss, singular or dual-infeasible basis,
    pivot cap), it is solved from scratch.  The remaining rows
    reoptimize the same live tableau ({!Boxlp.reoptimize}).  Warm and
    cold differ only in pivot order (same optima up to floating-point
    noise).  Emits the [appver.lp] counter and span,
    [lp.warm.{hits,pivots,fallbacks}] counters, and one
    [bound_computed] plus one [lp_warm] trace event per call
    (TRACE_SCHEMA §2.8, §2.19). *)

val run : Abonn_spec.Problem.t -> Abonn_spec.Split.gamma -> Abonn_prop.Outcome.t
(** [run_warm] with no parent state. *)

val clear_warm_cache : unit -> unit
(** Drop every cached basis (tests; long-lived processes between
    runs).  Never required for correctness. *)

val warm_cache_size : unit -> int
(** Number of cached bases (introspection/tests). *)

val appver : Abonn_prop.Appver.t
(** [run] registered under the name ["lp"], with [run_warm] as the warm
    entry point.  [{ appver with warm = None }] is the same verifier
    without parent states. *)

val all : Abonn_prop.Appver.t list
(** [Abonn_prop.Appver.all] and {!appver}: every AppVer by name, as
    [abonn_cli --appver] offers them and [Certificate.check] replays
    under them. *)
