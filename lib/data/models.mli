(** Benchmark model zoo — Table I of the paper, scaled for pure OCaml.

    Five families mirroring the paper's architectures: two fully
    connected stacks on the MNIST-like data and three convolutional
    networks (base / wide / deep) on the CIFAR-like data.  Absolute
    widths are scaled down (DESIGN.md §4) but the architectural
    relationships of Table I are preserved: L4 is twice as deep as L2,
    WIDE widens BASE's channels, DEEP doubles BASE's conv depth.

    Training is deterministic from the seed; trained weights can be
    cached on disk as ONNX files, one per model, seed and epoch count,
    through [train_cached]. *)

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

val cache_file : seed:int -> epochs:int -> spec -> string
(** ["<name>-s<seed>-e<epochs>.onnx"], e.g. ["mnist_l2-s7-e15.onnx"]:
    the file {!train_cached} keeps a trained network in. *)

val train_cached : dir:string -> ?seed:int -> ?epochs:int -> spec -> trained
(** Like [train] but loads the network from [dir/]{!cache_file} when
    present and writes it there after training otherwise ([Onnx]'s
    [F64] encoding, so a reloaded network is bit-identical).  The seed
    and epoch count are part of the file name, so a cache never answers
    for a different training run. *)
