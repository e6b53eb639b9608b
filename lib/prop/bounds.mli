(** Per-layer concrete bounds on pre-activations.

    A [t] holds element-wise lower/upper bounds for one layer's
    pre-activation vector ẑ.  Split constraints are *folded into* these
    bounds by [apply_split]: an [Active] split clamps the lower bound to
    0, an [Inactive] split clamps the upper bound to 0.  A clamp that
    empties an interval witnesses an infeasible sub-problem. *)

type t = {
  lower : float array;
  upper : float array;
}

val create : lower:float array -> upper:float array -> t
(** Copies its arguments; checks equal lengths (but *not* [lower <=
    upper]: infeasible bounds are representable on purpose). *)

val dim : t -> int

val is_infeasible : t -> bool
(** Some [lower.(i) > upper.(i)] (with 1e-12 slack). *)

val apply_split : t -> idx:int -> phase:Abonn_spec.Split.phase -> t
(** Clamp one neuron according to a split constraint. *)

type relu_state = Stable_active | Stable_inactive | Unstable

val relu_state_of : t -> int -> relu_state
(** Phase of neuron [i] implied by its bounds. *)

val unstable_indices : t -> int list
(** Neurons with [lower < 0 < upper]. *)

val num_unstable : t -> int

val width : t -> int -> float
(** [upper - lower] of one neuron. *)

val copy : t -> t

val affine_image :
  Abonn_tensor.Matrix.t -> float array -> lo:float array -> hi:float array ->
  float array * float array
(** Interval image [(lo', hi')] of an affine map [x ↦ Wx + b] over the
    input box [\[lo, hi\]] — the forward-interval step shared by every
    propagation domain.  Raises [Invalid_argument] unless [b] has [W]'s
    row count and [lo], [hi] its column count. *)

val intersect : t -> lo:float array -> hi:float array -> t
(** Per-neuron intersection with another sound interval (tighter of the
    two on each side). *)
