(** Benchmark model zoo — Table I of the paper, scaled for pure OCaml.

    Five families mirroring the paper's architectures: two fully
    connected stacks on the MNIST-like data and three convolutional
    networks (base / wide / deep) on the CIFAR-like data.  Absolute
    widths are scaled down (DESIGN.md §4) but the architectural
    relationships of Table I are preserved: L4 is twice as deep as L2,
    WIDE widens BASE's channels, DEEP doubles BASE's conv depth.

    Training is deterministic from the seed; trained weights can be
    cached on disk as ONNX files through [train_cached]. *)

type dataset_kind = Mnist_like | Cifar_like

type spec = {
  name : string;
  architecture : string;   (** human-readable, for Table I *)
  dataset : dataset_kind;
  build : Abonn_util.Rng.t -> Abonn_nn.Network.t;
}

val all : spec list
(** [mnist_l2; mnist_l4; cifar_base; cifar_wide; cifar_deep]. *)

val find : string -> spec option

val mnist_l2 : spec
val mnist_l4 : spec
val cifar_base : spec
val cifar_wide : spec
val cifar_deep : spec

type trained = {
  spec : spec;
  network : Abonn_nn.Network.t;
  dataset : Synth.t;
  train_accuracy : float;
  test_accuracy : float;
}

val dataset_for : ?seed:int -> dataset_kind -> Synth.t

val train : ?seed:int -> ?epochs:int -> spec -> trained
(** Build, train and evaluate (defaults: seed 7, 15 epochs). *)

val train_cached : dir:string -> ?seed:int -> ?epochs:int -> spec -> trained
(** Like [train] but loads the network from [dir/<name>.onnx] when
    present and writes it there after training otherwise ([Onnx]'s
    [F64] encoding, so a reloaded network is bit-identical). *)
