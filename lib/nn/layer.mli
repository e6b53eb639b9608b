(** Network layers.

    A network is a sequence of layers applied left to right to a flat
    float vector.  [Linear] and [Conv2d] are affine; [Relu] is the only
    non-linearity (following the paper, §III). *)

type t =
  | Linear of { weight : Abonn_tensor.Matrix.t; bias : float array }
      (** [y = W x + b] *)
  | Conv2d of Conv.t
  | Relu of int  (** element-wise [max 0] on a vector of the given width *)

val input_dim : t -> int
val output_dim : t -> int

val forward : t -> float array -> float array
(** Concrete evaluation; checks the input dimension. *)

val is_affine : t -> bool

val linear : Abonn_tensor.Matrix.t -> float array -> t
(** Checked constructor: bias length must equal the matrix row count. *)

val random_linear : Abonn_util.Rng.t -> in_dim:int -> out_dim:int -> t
(** He-initialised dense layer with zero bias. *)

val num_params : t -> int

val input_gradient : t -> input:float array -> d_out:float array -> float array
(** [input_gradient layer ~input ~d_out] propagates the output gradient
    [d_out] to the layer's input [input]: [Wᵀ d_out] for the affine
    layers, [d_out] masked by [input > 0] for [Relu]. *)
