(** Zonotope (DeepZ-style) bound propagation — the paper's reference
    [16] ("fast and effective robustness certification").

    Every neuron is an affine form [c + Σ g_i ε_i] over shared noise
    symbols [ε_i ∈ [-1, 1]]; affine layers are exact, and each unstable
    ReLU applies the minimal-area transformer
    [y = λx + μ + β·ε_new] with [λ = u/(u−l)], [μ = β = −u·l/(2(u−l))],
    introducing one fresh symbol.  Zonotopes track input correlations
    that plain intervals lose, but unlike DeepPoly back-substitution the
    relaxation is committed layer by layer — neither domain dominates the
    other, which is exactly why verification stacks ship several
    AppVers.

    The concretised forms refine [Bounds.forward]'s interval pass,
    which folds the split constraints in as per-neuron clamps;
    infeasible clamps yield a vacuous outcome.  The candidate
    counterexample assigns each input noise symbol its worst sign for
    the worst property row. *)

val run : Abonn_spec.Problem.t -> Abonn_spec.Split.gamma -> Outcome.t

val hidden_bounds :
  Abonn_spec.Problem.t -> Abonn_spec.Split.gamma -> Bounds.t array option
(** Pre-activation interval concretisations per hidden layer. *)
