module Rng = Abonn_util.Rng
module Network = Abonn_nn.Network
module Builder = Abonn_nn.Builder
module Trainer = Abonn_nn.Trainer
module Onnx = Abonn_nn.Onnx

type dataset_kind = Mnist_like | Cifar_like

type spec = {
  name : string;
  architecture : string;
  dataset : dataset_kind;
  build : Rng.t -> Network.t;
}

let mnist_input = 100 (* 1 × 10 × 10 *)

let mnist_l2 =
  { name = "mnist_l2";
    architecture = "2 x 32 linear";
    dataset = Mnist_like;
    build = (fun rng -> Builder.mlp rng ~dims:[ mnist_input; 32; 32; 10 ]) }

let mnist_l4 =
  { name = "mnist_l4";
    architecture = "4 x 24 linear";
    dataset = Mnist_like;
    build = (fun rng -> Builder.mlp rng ~dims:[ mnist_input; 24; 24; 24; 24; 10 ]) }

let conv c k s p = { Builder.out_channels = c; kernel = k; stride = s; padding = p }

let cifar_base =
  { name = "cifar_base";
    architecture = "2 conv, 2 linear";
    dataset = Cifar_like;
    build =
      (fun rng ->
        Builder.convnet rng ~in_channels:3 ~in_h:8 ~in_w:8
          ~convs:[ conv 4 3 2 1; conv 8 3 2 1 ]
          ~dense:[ 32 ] ~num_classes:10) }

let cifar_wide =
  { name = "cifar_wide";
    architecture = "2 conv (wide), 2 linear";
    dataset = Cifar_like;
    build =
      (fun rng ->
        Builder.convnet rng ~in_channels:3 ~in_h:8 ~in_w:8
          ~convs:[ conv 6 3 2 1; conv 12 3 2 1 ]
          ~dense:[ 48 ] ~num_classes:10) }

let cifar_deep =
  { name = "cifar_deep";
    architecture = "4 conv, 2 linear";
    dataset = Cifar_like;
    build =
      (fun rng ->
        Builder.convnet rng ~in_channels:3 ~in_h:8 ~in_w:8
          ~convs:[ conv 4 3 1 1; conv 4 3 2 1; conv 8 3 1 1; conv 8 3 2 1 ]
          ~dense:[ 32 ] ~num_classes:10) }

let all = [ mnist_l2; mnist_l4; cifar_base; cifar_wide; cifar_deep ]

let find name = List.find_opt (fun s -> s.name = name) all

type trained = {
  spec : spec;
  network : Network.t;
  dataset : Synth.t;
  train_accuracy : float;
  test_accuracy : float;
}

let dataset_for ?seed = function
  | Mnist_like -> Synth.mnist_like ?seed ()
  | Cifar_like -> Synth.cifar_like ?seed ()

let evaluate spec network dataset =
  { spec;
    network;
    dataset;
    train_accuracy = Trainer.accuracy network dataset.Synth.train;
    test_accuracy = Trainer.accuracy network dataset.Synth.test }

let train ?(seed = 7) ?(epochs = 15) (spec : spec) =
  let dataset = dataset_for spec.dataset in
  let rng = Rng.create seed in
  let net = spec.build rng in
  let config = { Trainer.default_config with epochs } in
  let net = Trainer.train ~config rng net dataset.Synth.train in
  evaluate spec net dataset

let cache_file ~seed ~epochs (spec : spec) =
  Printf.sprintf "%s-s%d-e%d.onnx" spec.name seed epochs

let train_cached ~dir ?(seed = 7) ?(epochs = 15) (spec : spec) =
  let path = Filename.concat dir (cache_file ~seed ~epochs spec) in
  if Sys.file_exists path then begin
    let network = Onnx.load path in
    evaluate spec network (dataset_for spec.dataset)
  end
  else begin
    let t = train ~seed ~epochs spec in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    Onnx.save t.network path;
    t
  end
