(** Interval bound propagation (IBP).

    The cheapest approximate verifier: pushes the input box forward
    through each affine layer with interval arithmetic and clips at
    ReLUs.  Strictly looser than [Deeppoly] but an order of magnitude
    faster per call; used as a sanity oracle in tests and selectable as
    an AppVer for ablations. *)

val run : Abonn_spec.Problem.t -> Abonn_spec.Split.gamma -> Outcome.t
(** [Bounds.forward] without a refinement.  The candidate counterexample
    is the input-box corner that minimises the worst property row's
    first-order estimate at the box centre. *)

val phat : Abonn_spec.Problem.t -> Abonn_spec.Split.gamma -> float
(** [(run problem gamma).phat] without the candidate: [infinity] when
    the splits are infeasible.  [run] is built on the same bound
    computation, so the two are equal to the last bit. *)

val hidden_bounds :
  Abonn_spec.Problem.t -> Abonn_spec.Split.gamma -> Bounds.t array option
(** Pre-activation bounds per hidden layer ([None] if splits are
    infeasible under IBP). *)
