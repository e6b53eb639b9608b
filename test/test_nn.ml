(* Tests for Abonn_nn: layer forward and gradients (checked against
   finite differences), conv materialisation, affine compilation, trainer
   convergence on a separable toy problem, serialization round-trips
   through ONNX, the one network format.  [Reference] keeps the full
   backward pass and the per-sample allocate-and-add trainer that the
   input-only gradient and the in-place trainer replaced; both must
   reproduce it to the last bit. *)

module Matrix = Abonn_tensor.Matrix
module Vector = Abonn_tensor.Vector
module Rng = Abonn_util.Rng
module Layer = Abonn_nn.Layer
module Conv = Abonn_nn.Conv
module Network = Abonn_nn.Network
module Affine = Abonn_nn.Affine
module Builder = Abonn_nn.Builder
module Trainer = Abonn_nn.Trainer
module Onnx = Abonn_nn.Onnx

module Reference = struct
  type grads =
    | Linear_grads of { d_weight : Matrix.t; d_bias : float array }
    | Conv_grads of { d_weight : float array; d_bias : float array }
    | No_grads

  (* the convolution's input and parameter gradients in one loop *)
  let conv_backward (c : Conv.t) ~input ~d_out =
    let oh = Conv.out_h c and ow = Conv.out_w c in
    let w_index ~oc ~ic ~ky ~kx =
      (((((oc * c.Conv.in_channels) + ic) * c.Conv.kernel_h) + ky) * c.Conv.kernel_w) + kx
    in
    let i_index ~ic ~y ~x = (((ic * c.Conv.in_h) + y) * c.Conv.in_w) + x in
    let o_index ~oc ~y ~x = (((oc * oh) + y) * ow) + x in
    let d_in = Array.make (Conv.input_dim c) 0.0 in
    let d_weight = Array.make (Array.length c.Conv.weight) 0.0 in
    let d_bias = Array.make c.Conv.out_channels 0.0 in
    for oc = 0 to c.Conv.out_channels - 1 do
      for oy = 0 to oh - 1 do
        for ox = 0 to ow - 1 do
          let g = d_out.(o_index ~oc ~y:oy ~x:ox) in
          if g <> 0.0 then begin
            d_bias.(oc) <- d_bias.(oc) +. g;
            for ic = 0 to c.Conv.in_channels - 1 do
              for ky = 0 to c.Conv.kernel_h - 1 do
                let iy = (oy * c.Conv.stride) + ky - c.Conv.padding in
                if iy >= 0 && iy < c.Conv.in_h then
                  for kx = 0 to c.Conv.kernel_w - 1 do
                    let ix = (ox * c.Conv.stride) + kx - c.Conv.padding in
                    if ix >= 0 && ix < c.Conv.in_w then begin
                      let wi = w_index ~oc ~ic ~ky ~kx in
                      let ii = i_index ~ic ~y:iy ~x:ix in
                      d_weight.(wi) <- d_weight.(wi) +. (g *. input.(ii));
                      d_in.(ii) <- d_in.(ii) +. (g *. c.Conv.weight.(wi))
                    end
                  done
              done
            done
          end
        done
      done
    done;
    (d_in, Conv_grads { d_weight; d_bias })

  let backward layer ~input ~d_out =
    match layer with
    | Layer.Linear { weight; _ } ->
      let d_weight =
        Matrix.init (Array.length d_out) (Array.length input) (fun i j -> d_out.(i) *. input.(j))
      in
      (Matrix.tmv weight d_out, Linear_grads { d_weight; d_bias = Array.copy d_out })
    | Layer.Conv2d c -> conv_backward c ~input ~d_out
    | Layer.Relu _ -> (Array.mapi (fun i g -> if input.(i) > 0.0 then g else 0.0) d_out, No_grads)

  let backprop net x ~d_out =
    let layers = Array.of_list (Network.layers net) in
    let values = Network.trace net x in
    let grads = Array.make (Array.length layers) No_grads in
    let rec loop i g =
      if i < 0 then g
      else begin
        let d_in, layer_grads = backward layers.(i) ~input:values.(i) ~d_out:g in
        grads.(i) <- layer_grads;
        loop (i - 1) d_in
      end
    in
    let d_input = loop (Array.length layers - 1) d_out in
    (d_input, grads)

  let add_grads acc more =
    Array.mapi
      (fun i a ->
        match a, more.(i) with
        | No_grads, No_grads -> No_grads
        | Linear_grads a, Linear_grads b ->
          Linear_grads
            { d_weight = Matrix.add a.d_weight b.d_weight;
              d_bias = Array.mapi (fun k v -> v +. b.d_bias.(k)) a.d_bias }
        | Conv_grads a, Conv_grads b ->
          Conv_grads
            { d_weight = Array.mapi (fun k v -> v +. b.d_weight.(k)) a.d_weight;
              d_bias = Array.mapi (fun k v -> v +. b.d_bias.(k)) a.d_bias }
        | _ -> invalid_arg "Reference.add_grads")
      acc

  let scale_grads s =
    Array.map (function
      | No_grads -> No_grads
      | Linear_grads a ->
        Linear_grads
          { d_weight = Matrix.scale s a.d_weight; d_bias = Array.map (fun v -> s *. v) a.d_bias }
      | Conv_grads a ->
        Conv_grads
          { d_weight = Array.map (fun v -> s *. v) a.d_weight;
            d_bias = Array.map (fun v -> s *. v) a.d_bias })

  let apply_grads net grads ~lr =
    Network.create
      (List.mapi
         (fun i layer ->
           match layer, grads.(i) with
           | Layer.Linear { weight; bias }, Linear_grads g ->
             Layer.linear
               (Matrix.sub weight (Matrix.scale lr g.d_weight))
               (Array.mapi (fun k b -> b -. (lr *. g.d_bias.(k))) bias)
           | Layer.Conv2d c, Conv_grads g ->
             Layer.Conv2d
               { c with
                 Conv.weight = Array.mapi (fun k w -> w -. (lr *. g.d_weight.(k))) c.Conv.weight;
                 bias = Array.mapi (fun k b -> b -. (lr *. g.d_bias.(k))) c.Conv.bias }
           | layer, No_grads -> layer
           | _ -> invalid_arg "Reference.apply_grads")
         (Network.layers net))

  let train (config : Trainer.config) rng net (samples : Trainer.sample array) =
    let order = Array.init (Array.length samples) (fun i -> i) in
    let net = ref net in
    let lr = ref config.Trainer.learning_rate in
    for _ = 1 to config.Trainer.epochs do
      Rng.shuffle rng order;
      let i = ref 0 in
      let n = Array.length order in
      while !i < n do
        let batch_end = Stdlib.min n (!i + config.Trainer.batch_size) in
        let batch_n = batch_end - !i in
        let acc = ref None in
        for k = !i to batch_end - 1 do
          let s = samples.(order.(k)) in
          let logits = Network.forward !net s.Trainer.features in
          let _, d_out = Trainer.cross_entropy_grad logits s.Trainer.label in
          let _, grads = backprop !net s.Trainer.features ~d_out in
          acc := Some (match !acc with None -> grads | Some a -> add_grads a grads)
        done;
        Option.iter
          (fun g ->
            net := apply_grads !net (scale_grads (1.0 /. float_of_int batch_n) g) ~lr:!lr)
          !acc;
        i := batch_end
      done;
      lr := !lr *. config.Trainer.lr_decay
    done;
    !net
end

let check_float = Alcotest.(check (float 1e-6))
let vec = Alcotest.testable Vector.pp (Vector.approx_equal ~tol:1e-6)

(* A fixed small network: 2 -> 3 -> 2, weights chosen by hand. *)
let tiny_net () =
  let w1 = Matrix.of_rows [| [| 1.0; -1.0 |]; [| 2.0; 0.5 |]; [| -1.0; 1.0 |] |] in
  let b1 = [| 0.0; -1.0; 0.5 |] in
  let w2 = Matrix.of_rows [| [| 1.0; 1.0; 1.0 |]; [| -1.0; 0.0; 2.0 |] |] in
  let b2 = [| 0.1; -0.2 |] in
  Network.create [ Layer.linear w1 b1; Layer.Relu 3; Layer.linear w2 b2 ]

let test_network_forward () =
  let net = tiny_net () in
  let x = [| 1.0; 2.0 |] in
  (* z1 = [-1; 2; 1.5]; relu = [0; 2; 1.5]; y = [0+2+1.5+0.1; 0+0+3-0.2] *)
  Alcotest.check vec "forward" [| 3.6; 2.8 |] (Network.forward net x)

let test_network_dims () =
  let net = tiny_net () in
  Alcotest.(check int) "input" 2 (Network.input_dim net);
  Alcotest.(check int) "output" 2 (Network.output_dim net);
  Alcotest.(check int) "relus" 3 (Network.num_relus net);
  Alcotest.(check int) "neurons" 5 (Network.num_neurons net)

let test_network_trace () =
  let net = tiny_net () in
  let tr = Network.trace net [| 1.0; 2.0 |] in
  Alcotest.(check int) "trace length" 4 (Array.length tr);
  Alcotest.check vec "input kept" [| 1.0; 2.0 |] tr.(0);
  Alcotest.check vec "output last" (Network.forward net [| 1.0; 2.0 |]) tr.(3)

let test_network_create_rejects_mismatch () =
  let w = Matrix.zeros 3 2 in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Network.create [ Layer.linear w (Array.make 3 0.0); Layer.Relu 4 ]);
       false
     with Invalid_argument _ -> true)

(* Finite-difference check of the input gradient of a scalar output. *)
let finite_diff_grad f x =
  let eps = 1e-5 in
  Array.mapi
    (fun i _ ->
      let xp = Array.copy x and xm = Array.copy x in
      xp.(i) <- xp.(i) +. eps;
      xm.(i) <- xm.(i) -. eps;
      (f xp -. f xm) /. (2.0 *. eps))
    x

let test_input_gradient_matches_fd () =
  let rng = Rng.create 123 in
  let net = Builder.mlp rng ~dims:[ 4; 6; 3 ] in
  let d_out = [| 1.0; -2.0; 0.5 |] in
  (* x away from ReLU kinks with overwhelming probability *)
  let x = Array.init 4 (fun _ -> Rng.range rng (-1.0) 1.0) in
  let f x = Vector.dot d_out (Network.forward net x) in
  let g = Network.input_gradient net x ~d_out in
  let g_fd = finite_diff_grad f x in
  Alcotest.(check bool) "gradient matches finite differences" true
    (Vector.approx_equal ~tol:1e-4 g g_fd)

let test_param_gradient_descends () =
  (* One SGD step on a single sample must reduce that sample's loss. *)
  let rng = Rng.create 7 in
  let net = Builder.mlp rng ~dims:[ 3; 5; 2 ] in
  let x = [| 0.5; -0.3; 0.8 |] in
  let label = 1 in
  let loss net =
    let logits = Network.forward net x in
    fst (Trainer.cross_entropy_grad logits label)
  in
  let config =
    { Trainer.default_config with epochs = 1; batch_size = 1; learning_rate = 0.1 }
  in
  let net' = Trainer.train ~config rng net [| { Trainer.features = x; label } |] in
  Alcotest.(check bool) "loss decreased" true (loss net' < loss net)

(* The input gradient is the full backward pass's, bit for bit. *)
let test_input_gradient_matches_reference () =
  let rng = Rng.create 21 in
  let mlp = Builder.mlp rng ~dims:[ 5; 8; 6; 3 ] in
  let cnn =
    Builder.convnet rng ~in_channels:2 ~in_h:6 ~in_w:6
      ~convs:
        [ { Builder.out_channels = 3; kernel = 3; stride = 2; padding = 1 };
          { Builder.out_channels = 2; kernel = 2; stride = 1; padding = 0 } ]
      ~dense:[ 5 ] ~num_classes:3
  in
  List.iter
    (fun (what, net) ->
      for _ = 1 to 20 do
        let x = Array.init (Network.input_dim net) (fun _ -> Rng.range rng (-1.0) 1.0) in
        let d_out = Array.init (Network.output_dim net) (fun _ -> Rng.range rng (-1.0) 1.0) in
        Alcotest.(check bool) (what ^ ": bit-identical") true
          (Network.input_gradient net x ~d_out = fst (Reference.backprop net x ~d_out))
      done)
    [ ("mlp", mlp); ("cnn", cnn) ]

(* The in-place trainer reproduces the allocate-and-add one to the last
   bit, over epochs whose last batch is short, and leaves its argument
   untouched. *)
let trainer_matches_reference ~net ~samples ~batch_size =
  let config = { Trainer.default_config with epochs = 3; batch_size } in
  let before = Network.layers net in
  let trained = Trainer.train ~config (Rng.create 4) net samples in
  let reference = Reference.train config (Rng.create 4) net samples in
  Alcotest.(check bool) "input network unchanged" true (Network.layers net = before);
  Alcotest.(check bool) "training moved the weights" true (Network.layers trained <> before);
  Alcotest.(check bool) "weights bit-identical" true
    (Network.layers trained = Network.layers reference)

let test_trainer_matches_reference_mlp () =
  let rng = Rng.create 61 in
  let net = Builder.mlp rng ~dims:[ 4; 7; 5; 3 ] in
  let samples =
    Array.init 23 (fun i ->
        { Trainer.features = Array.init 4 (fun _ -> Rng.range rng (-1.0) 1.0); label = i mod 3 })
  in
  trainer_matches_reference ~net ~samples ~batch_size:5

let test_trainer_matches_reference_conv () =
  let rng = Rng.create 62 in
  let net =
    Builder.convnet rng ~in_channels:1 ~in_h:6 ~in_w:6
      ~convs:
        [ { Builder.out_channels = 2; kernel = 3; stride = 2; padding = 1 };
          { Builder.out_channels = 3; kernel = 2; stride = 1; padding = 0 } ]
      ~dense:[ 6 ] ~num_classes:3
  in
  let samples =
    Array.init 17 (fun i ->
        { Trainer.features = Array.init 36 (fun _ -> Rng.uniform rng); label = i mod 3 })
  in
  trainer_matches_reference ~net ~samples ~batch_size:3

(* --- Conv --- *)

let test_conv_geometry () =
  let rng = Rng.create 1 in
  let c = Conv.create rng ~in_channels:1 ~in_h:5 ~in_w:5 ~out_channels:2 ~kernel:3 ~stride:2 ~padding:1 in
  Alcotest.(check int) "out_h" 3 (Conv.out_h c);
  Alcotest.(check int) "out_w" 3 (Conv.out_w c);
  Alcotest.(check int) "input dim" 25 (Conv.input_dim c);
  Alcotest.(check int) "output dim" 18 (Conv.output_dim c)

let test_conv_known_value () =
  (* 1 channel, 3x3 input, 2x2 kernel of ones, stride 1, no padding. *)
  let rng = Rng.create 1 in
  let c0 = Conv.create rng ~in_channels:1 ~in_h:3 ~in_w:3 ~out_channels:1 ~kernel:2 ~stride:1 ~padding:0 in
  let c = { c0 with Conv.weight = Array.make 4 1.0; bias = [| 0.5 |] } in
  let x = [| 1.0; 2.0; 3.0; 4.0; 5.0; 6.0; 7.0; 8.0; 9.0 |] in
  (* windows: [1,2,4,5]=12, [2,3,5,6]=16, [4,5,7,8]=24, [5,6,8,9]=28; +bias *)
  Alcotest.check vec "conv values" [| 12.5; 16.5; 24.5; 28.5 |] (Conv.forward c x)

let test_conv_matrix_agrees_with_forward () =
  let rng = Rng.create 42 in
  let c = Conv.create rng ~in_channels:2 ~in_h:4 ~in_w:4 ~out_channels:3 ~kernel:3 ~stride:1 ~padding:1 in
  let w, b = Conv.to_matrix c in
  for trial = 1 to 5 do
    ignore trial;
    let x = Array.init (Conv.input_dim c) (fun _ -> Rng.range rng (-1.0) 1.0) in
    let direct = Conv.forward c x in
    let via_matrix = Vector.add (Matrix.mv w x) b in
    Alcotest.(check bool) "materialisation agrees" true
      (Vector.approx_equal ~tol:1e-9 direct via_matrix)
  done

let test_conv_backward_matches_fd () =
  let rng = Rng.create 5 in
  let c = Conv.create rng ~in_channels:1 ~in_h:4 ~in_w:4 ~out_channels:2 ~kernel:2 ~stride:1 ~padding:0 in
  let x = Array.init (Conv.input_dim c) (fun _ -> Rng.range rng (-1.0) 1.0) in
  let d_out = Array.init (Conv.output_dim c) (fun _ -> Rng.range rng (-1.0) 1.0) in
  let f x = Vector.dot d_out (Conv.forward c x) in
  Alcotest.(check bool) "conv input grad" true
    (Vector.approx_equal ~tol:1e-4 (Conv.input_gradient c ~d_out) (finite_diff_grad f x));
  let d_weight = Array.make (Array.length c.Conv.weight) 0.0 in
  let d_bias = Array.make c.Conv.out_channels 0.0 in
  Conv.add_param_gradient c ~input:x ~d_out ~d_weight ~d_bias;
  let of_weight w = Vector.dot d_out (Conv.forward { c with Conv.weight = w } x) in
  let of_bias b = Vector.dot d_out (Conv.forward { c with Conv.bias = b } x) in
  Alcotest.(check bool) "conv weight grad" true
    (Vector.approx_equal ~tol:1e-4 d_weight (finite_diff_grad of_weight c.Conv.weight));
  Alcotest.(check bool) "conv bias grad" true
    (Vector.approx_equal ~tol:1e-4 d_bias (finite_diff_grad of_bias c.Conv.bias))

(* --- Affine compilation --- *)

let test_affine_matches_network () =
  let rng = Rng.create 99 in
  let net = Builder.mlp rng ~dims:[ 3; 4; 4; 2 ] in
  let affine = Affine.of_network net in
  Alcotest.(check int) "relus" (Network.num_relus net) Affine.(affine.num_relus);
  for trial = 1 to 10 do
    ignore trial;
    let x = Array.init 3 (fun _ -> Rng.range rng (-2.0) 2.0) in
    Alcotest.(check bool) "same function" true
      (Vector.approx_equal ~tol:1e-9 (Network.forward net x) (Affine.forward affine x))
  done

let test_affine_convnet_matches () =
  let rng = Rng.create 77 in
  let net =
    Builder.convnet rng ~in_channels:1 ~in_h:6 ~in_w:6
      ~convs:[ { Builder.out_channels = 2; kernel = 3; stride = 2; padding = 1 } ]
      ~dense:[ 8 ] ~num_classes:3
  in
  let affine = Affine.of_network net in
  for trial = 1 to 5 do
    ignore trial;
    let x = Array.init 36 (fun _ -> Rng.uniform rng) in
    Alcotest.(check bool) "conv compile agrees" true
      (Vector.approx_equal ~tol:1e-8 (Network.forward net x) (Affine.forward affine x))
  done

let test_affine_fuses_consecutive_affine () =
  (* Linear;Linear;Relu;Linear must fuse to exactly 2 affine layers. *)
  let rng = Rng.create 3 in
  let l1 = Layer.random_linear rng ~in_dim:3 ~out_dim:4 in
  let l2 = Layer.random_linear rng ~in_dim:4 ~out_dim:5 in
  let l3 = Layer.random_linear rng ~in_dim:5 ~out_dim:2 in
  let net = Network.create [ l1; l2; Layer.Relu 5; l3 ] in
  let affine = Affine.of_network net in
  Alcotest.(check int) "two affine layers" 2 (Affine.num_layers affine);
  let x = [| 0.3; -0.2; 0.9 |] in
  Alcotest.(check bool) "fusion preserves semantics" true
    (Vector.approx_equal ~tol:1e-9 (Network.forward net x) (Affine.forward affine x))

let test_affine_relu_indexing_roundtrip () =
  let rng = Rng.create 11 in
  let net = Builder.mlp rng ~dims:[ 2; 3; 4; 2 ] in
  let affine = Affine.of_network net in
  Alcotest.(check int) "K" 7 Affine.(affine.num_relus);
  for k = 0 to 6 do
    let layer, idx = Affine.relu_position affine k in
    Alcotest.(check int) "roundtrip" k (Affine.relu_index affine ~layer ~idx)
  done;
  Alcotest.(check bool) "out of range" true
    (try ignore (Affine.relu_position affine 7); false with Invalid_argument _ -> true)

let test_affine_pre_activations () =
  let net = tiny_net () in
  let affine = Affine.of_network net in
  let pre = Affine.pre_activations affine [| 1.0; 2.0 |] in
  Alcotest.(check int) "two layers" 2 (Array.length pre);
  Alcotest.check vec "hidden pre-activation" [| -1.0; 2.0; 1.5 |] pre.(0);
  Alcotest.check vec "output" [| 3.6; 2.8 |] pre.(1)

let test_affine_rejects_trailing_relu () =
  let rng = Rng.create 3 in
  let l1 = Layer.random_linear rng ~in_dim:2 ~out_dim:3 in
  let net = Network.create [ l1; Layer.Relu 3 ] in
  Alcotest.(check bool) "raises" true
    (try ignore (Affine.of_network net); false with Invalid_argument _ -> true)

(* --- Trainer --- *)

let blob_samples rng n =
  (* Two linearly separable Gaussian blobs in 2-D. *)
  Array.init n (fun i ->
      let label = i mod 2 in
      let cx = if label = 0 then -1.0 else 1.0 in
      { Trainer.features = [| cx +. (0.3 *. Rng.gaussian rng); 0.3 *. Rng.gaussian rng |];
        label })

let test_trainer_learns_blobs () =
  let rng = Rng.create 2024 in
  let net = Builder.mlp rng ~dims:[ 2; 8; 2 ] in
  let samples = blob_samples rng 200 in
  let before = Trainer.accuracy net samples in
  let config = { Trainer.default_config with epochs = 20 } in
  let net = Trainer.train ~config rng net samples in
  let after = Trainer.accuracy net samples in
  Alcotest.(check bool)
    (Printf.sprintf "accuracy improves (%.2f -> %.2f)" before after)
    true
    (after >= 0.95)

let test_trainer_loss_decreases () =
  let rng = Rng.create 31 in
  let net = Builder.mlp rng ~dims:[ 2; 6; 2 ] in
  let samples = blob_samples rng 100 in
  let loss0 = Trainer.average_loss net samples in
  let config = { Trainer.default_config with epochs = 5 } in
  let net = Trainer.train ~config rng net samples in
  Alcotest.(check bool) "loss decreases" true (Trainer.average_loss net samples < loss0)

let test_softmax_normalises () =
  let p = Trainer.softmax [| 1.0; 2.0; 3.0 |] in
  check_float "sums to one" 1.0 (Array.fold_left ( +. ) 0.0 p);
  Alcotest.(check bool) "monotone" true (p.(0) < p.(1) && p.(1) < p.(2))

let test_softmax_stable_large_logits () =
  let p = Trainer.softmax [| 1000.0; 0.0 |] in
  Alcotest.(check bool) "no nan" true (not (Float.is_nan p.(0)));
  check_float "saturates" 1.0 p.(0)

(* --- Serialization (ONNX) --- *)

let test_serialize_roundtrip_mlp () =
  let rng = Rng.create 55 in
  let net = Builder.mlp rng ~dims:[ 3; 5; 2 ] in
  let net' = Onnx.of_bytes (Onnx.to_bytes net) in
  let x = [| 0.1; -0.7; 0.4 |] in
  Alcotest.check vec "roundtrip function" (Network.forward net x) (Network.forward net' x)

let test_serialize_roundtrip_conv () =
  let rng = Rng.create 56 in
  let net =
    Builder.convnet rng ~in_channels:1 ~in_h:5 ~in_w:5
      ~convs:[ { Builder.out_channels = 2; kernel = 3; stride = 1; padding = 0 } ]
      ~dense:[] ~num_classes:2
  in
  let net' = Onnx.of_bytes (Onnx.to_bytes net) in
  let x = Array.init 25 (fun i -> float_of_int i /. 25.0) in
  Alcotest.check vec "conv roundtrip" (Network.forward net x) (Network.forward net' x)

let test_serialize_rejects_garbage () =
  let rejects bytes =
    try ignore (Onnx.of_bytes bytes); false with Abonn_util.Parse_error.Error _ -> true
  in
  Alcotest.(check bool) "bad header" true (rejects "not a network");
  Alcotest.(check bool) "truncated" true
    (rejects (String.sub (Onnx.to_bytes (tiny_net ())) 0 20))

let test_serialize_file_roundtrip () =
  let rng = Rng.create 57 in
  let net = Builder.mlp rng ~dims:[ 2; 3; 2 ] in
  let path = Filename.temp_file "abonn_test" ".onnx" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Onnx.save net path;
      let net' = Onnx.load path in
      let x = [| 0.5; -0.5 |] in
      Alcotest.check vec "file roundtrip" (Network.forward net x) (Network.forward net' x))

(* --- qcheck: network forward is piecewise linear => positively homogeneous
   along fixed directions between kinks is hard to test; instead test that
   forward is deterministic and Lipschitz on small perturbations. --- *)

let prop_forward_deterministic =
  QCheck.Test.make ~name:"forward deterministic" ~count:50
    QCheck.(array_of_size (QCheck.Gen.return 3) (float_bound_inclusive 2.0))
    (fun x ->
      let rng = Rng.create 1234 in
      let net = Builder.mlp rng ~dims:[ 3; 4; 2 ] in
      Vector.approx_equal (Network.forward net x) (Network.forward net x))

let qtest = QCheck_alcotest.to_alcotest

let suite =
  [ ( "nn.network",
      [ Alcotest.test_case "forward" `Quick test_network_forward;
        Alcotest.test_case "dims" `Quick test_network_dims;
        Alcotest.test_case "trace" `Quick test_network_trace;
        Alcotest.test_case "mismatch rejected" `Quick test_network_create_rejects_mismatch;
        Alcotest.test_case "input grad vs fd" `Quick test_input_gradient_matches_fd;
        Alcotest.test_case "sgd step descends" `Quick test_param_gradient_descends;
        Alcotest.test_case "input grad matches reference" `Quick
          test_input_gradient_matches_reference;
        qtest prop_forward_deterministic
      ] );
    ( "nn.conv",
      [ Alcotest.test_case "geometry" `Quick test_conv_geometry;
        Alcotest.test_case "known value" `Quick test_conv_known_value;
        Alcotest.test_case "matrix agrees" `Quick test_conv_matrix_agrees_with_forward;
        Alcotest.test_case "backward vs fd" `Quick test_conv_backward_matches_fd
      ] );
    ( "nn.affine",
      [ Alcotest.test_case "mlp matches" `Quick test_affine_matches_network;
        Alcotest.test_case "convnet matches" `Quick test_affine_convnet_matches;
        Alcotest.test_case "fuses affine" `Quick test_affine_fuses_consecutive_affine;
        Alcotest.test_case "relu indexing" `Quick test_affine_relu_indexing_roundtrip;
        Alcotest.test_case "pre-activations" `Quick test_affine_pre_activations;
        Alcotest.test_case "trailing relu rejected" `Quick test_affine_rejects_trailing_relu
      ] );
    ( "nn.trainer",
      [ Alcotest.test_case "learns blobs" `Quick test_trainer_learns_blobs;
        Alcotest.test_case "loss decreases" `Quick test_trainer_loss_decreases;
        Alcotest.test_case "matches reference (mlp)" `Quick test_trainer_matches_reference_mlp;
        Alcotest.test_case "matches reference (conv)" `Quick test_trainer_matches_reference_conv;
        Alcotest.test_case "softmax normalises" `Quick test_softmax_normalises;
        Alcotest.test_case "softmax stable" `Quick test_softmax_stable_large_logits
      ] );
    ( "nn.serialize",
      [ Alcotest.test_case "mlp roundtrip" `Quick test_serialize_roundtrip_mlp;
        Alcotest.test_case "conv roundtrip" `Quick test_serialize_roundtrip_conv;
        Alcotest.test_case "rejects garbage" `Quick test_serialize_rejects_garbage;
        Alcotest.test_case "file roundtrip" `Quick test_serialize_file_roundtrip
      ] )
  ]
