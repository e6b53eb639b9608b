(** Per-layer concrete bounds on pre-activations, and the forward pass
    every bound domain computes them with.

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

val apply_splits : Abonn_nn.Affine.t -> Abonn_spec.Split.gamma -> int -> t -> t
(** [apply_splits affine gamma l t] clamps [t], the bounds of hidden
    layer [l], by every constraint of [gamma] at that layer, in
    [gamma]'s order. *)

(** {1 The forward pass} *)

type pass = {
  pre_bounds : t array;  (** every hidden layer, splits folded in *)
  post_lo : float array;
      (** post-activation box of the deepest hidden layer (the input
          box without one) *)
  post_hi : float array;
}

val forward :
  ?refine:(int -> t array -> t) ->
  ?tighten:(int -> t -> t) ->
  ?prefix:t array ->
  Abonn_spec.Problem.t ->
  Abonn_spec.Split.gamma ->
  (pass, t array) result
(** Bound every hidden layer in turn, from the input box.  Layer [l]
    gets the interval image ({!affine_image}) of the previous layer's
    post-ReLU box, intersected with the domain's own bound
    [refine l pre_bounds] (which may read the layers below [l]), then
    Γ's splits at [l] ({!apply_splits}), then [tighten l].  An empty
    interval stops the pass: [Error] carries the layers bounded before
    it.  With [prefix], its layers are taken verbatim and the pass
    starts above them.  Without [refine] this is interval bound
    propagation. *)

val row_lower : Abonn_spec.Problem.t -> pass -> float array
(** Interval lower bound of each property row [c·y + d] over the output
    box reached from the pass's last post-activation box. *)
