(** 2-D convolution layers over flat input vectors.

    Images are stored channel-major: a [c × h × w] tensor is the flat
    vector where index [(ch * h + y) * w + x] holds pixel [(y, x)] of
    channel [ch].  Convolutions support stride and zero padding.

    Besides the concrete [forward] and the gradients used for training
    and attacks, a convolution can be materialised as a dense matrix
    ([to_matrix]) so the verification engines (bound propagation, LP
    encoding) only ever deal with affine layers. *)

type t = {
  in_channels : int;
  in_h : int;
  in_w : int;
  out_channels : int;
  kernel_h : int;
  kernel_w : int;
  stride : int;
  padding : int;
  weight : float array;
      (** flattened [out_c][in_c][kh][kw]; index
          [((oc * in_c + ic) * kh + ky) * kw + kx] *)
  bias : float array;  (** length [out_channels] *)
}

val out_h : t -> int
val out_w : t -> int

val input_dim : t -> int
(** [in_channels * in_h * in_w]. *)

val output_dim : t -> int
(** [out_channels * out_h * out_w]. *)

val create :
  Abonn_util.Rng.t ->
  in_channels:int ->
  in_h:int ->
  in_w:int ->
  out_channels:int ->
  kernel:int ->
  stride:int ->
  padding:int ->
  t
(** He-initialised square-kernel convolution. *)

val forward : t -> float array -> float array
(** Concrete evaluation.  Raises [Invalid_argument] on wrong input size. *)

val input_gradient : t -> d_out:float array -> float array
(** [input_gradient conv ~d_out] is the gradient of [d_out · forward conv x]
    with respect to [x] (it does not depend on [x]). *)

val add_param_gradient :
  t -> input:float array -> d_out:float array -> d_weight:float array ->
  d_bias:float array -> unit
(** [add_param_gradient conv ~input ~d_out ~d_weight ~d_bias] adds the
    gradient of [d_out · forward conv input] with respect to the weights
    and biases into [d_weight] (the layout of [weight]) and [d_bias],
    summing each entry's terms in the forward pass's loop order. *)

val to_matrix : t -> Abonn_tensor.Matrix.t * float array
(** Materialise as [(w, b)] such that [forward conv x = w x + b] for all
    [x].  The matrix has [output_dim] rows and [input_dim] columns. *)
