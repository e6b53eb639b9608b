(** LP-based approximate verifier over the triangle relaxation.

    Encodes the (split-constrained) network as the standard LP relaxation
    — exact affine layers, triangle-relaxed unstable ReLUs — and minimises
    each property row with the in-repo simplex.  This is the tightest
    AppVer in the repository (it reasons about all neurons jointly, where
    [Abonn_prop.Deeppoly] commits to one linear bound per neuron), at a
    much higher per-call cost; the paper's pipeline reserves LP-grade
    reasoning for the solver backend and we use this engine as a
    cross-check oracle in tests and as an optional AppVer for small
    networks.

    The candidate counterexample is the input part of the LP minimiser —
    a vertex of the relaxation, mirroring what a Gurobi-backed BaB
    implementation validates. *)

val observed_solve : Lp_problem.t -> Lp_problem.outcome
(** [Lp_problem.solve] with the LP telemetry every solve in the
    repository reports: the [lp.solves] and [lp.solve.<status>]
    counters, the [lp.solve] span and one [lp_solved] trace event.
    Costs one branch while observability is off. *)

val run : Abonn_spec.Problem.t -> Abonn_spec.Split.gamma -> Abonn_prop.Outcome.t
(** Pre-activation bounds are taken from [Abonn_prop.Deeppoly] (and are
    part of the returned outcome, as for every AppVer). *)

val run_warm :
  ?state:Abonn_prop.Incremental.t ->
  Abonn_spec.Problem.t ->
  Abonn_spec.Split.gamma ->
  Abonn_prop.Outcome.t * Abonn_prop.Incremental.t option
(** Warm-started analysis (DESIGN.md §13): pre-activation bounds reuse
    the parent's state through the DeepPoly incremental machinery, the
    first property row is re-solved by dual simplex from the parent's
    cached optimal basis ({!Boxlp.solve_warm}) and the remaining rows
    reoptimize the same live tableau ({!Boxlp.reoptimize}).  Every
    degraded step (no parent, incompatible state, singular or
    dual-infeasible basis, pivot cap) falls back to a cold solve of the
    same polytope, so the result is always exactly as trustworthy as
    {!run}; warm and cold differ only in pivot order (same optima up to
    floating-point noise).  Emits [lp.warm.{hits,pivots,fallbacks}]
    counters and one [lp_warm] trace event per call (TRACE_SCHEMA
    §2.19).  When {!warm_enabled} is off this is exactly [run] paired
    with [None] — bit-for-bit the cold path. *)

val warm_enabled : unit -> bool
(** Global warm-start switch, [true] by default ([--no-lp-warm] turns
    it off). *)

val set_warm_enabled : bool -> unit

val with_warm_enabled : bool -> (unit -> 'a) -> 'a
(** Run a thunk with the switch forced, restoring it afterwards (also
    on exceptions). *)

val clear_warm_cache : unit -> unit
(** Drop every cached basis (tests; long-lived processes between
    runs).  Never required for correctness. *)

val warm_cache_size : unit -> int
(** Number of cached bases (introspection/tests). *)

val appver : Abonn_prop.Appver.t
(** [run] registered under the name ["lp"], with [run_warm] as the warm
    entry point. *)
