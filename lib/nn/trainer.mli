(** Mini-batch SGD training with softmax cross-entropy.

    The repository trains its own benchmark models (DESIGN.md §4): the
    paper's MNIST/CIFAR-10 weights are not available offline, so synthetic
    datasets from [Abonn_data.Synth] are fitted with this trainer to obtain
    realistic, non-random weight structure for verification. *)

type sample = { features : float array; label : int }

type config = {
  epochs : int;
  batch_size : int;
  learning_rate : float;
  lr_decay : float;  (** multiplicative per-epoch decay *)
  verbose : bool;
}

val default_config : config

val softmax : float array -> float array
(** Numerically stable softmax. *)

val cross_entropy_grad : float array -> int -> float * float array
(** [cross_entropy_grad logits label] is the loss and its gradient w.r.t.
    the logits. *)

val train :
  ?config:config ->
  Abonn_util.Rng.t ->
  Network.t ->
  sample array ->
  Network.t
(** Train a copy of the network and return it; the argument is left
    unchanged.  Each sample costs one {!Network.trace} and one backward
    pass that adds its parameter gradient into a per-layer buffer (the
    batch's first sample overwrites it); each batch then steps every
    parameter in place by [w − lr·((1/n)·g)].  The result is
    bit-identical to summing freshly allocated per-sample gradients. *)

val accuracy : Network.t -> sample array -> float
(** Fraction of samples classified correctly. *)

val average_loss : Network.t -> sample array -> float
