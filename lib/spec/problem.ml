module Nn = Abonn_nn
module Matrix = Abonn_tensor.Matrix

type t = {
  name : string;
  network : Nn.Network.t;
  affine : Nn.Affine.t;
  region : Region.t;
  property : Property.t;
}

let validate ~name ~network ~affine ~region ~property =
  if Region.dim region <> Nn.Affine.(affine.input_dim) then
    invalid_arg "Problem: region dimension does not match network input";
  if Property.output_dim property <> Nn.Affine.(affine.output_dim) then
    invalid_arg "Problem: property dimension does not match network output";
  { name; network; affine; region; property }

let create ?(name = "problem") ~network ~region ~property () =
  let affine = Nn.Affine.of_network network in
  validate ~name ~network ~affine ~region ~property

let network_of_affine affine =
  let open Nn in
  let n = Affine.num_layers affine in
  let layers = ref [] in
  for l = n - 1 downto 0 do
    if l < n - 1 then layers := Layer.Relu (Affine.layer_width affine l) :: !layers;
    layers :=
      Layer.linear Affine.(affine.weights.(l)) (Array.copy Affine.(affine.biases.(l))) :: !layers
  done;
  Network.create !layers

let of_affine ?(name = "problem") ~affine ~region ~property () =
  validate ~name ~network:(network_of_affine affine) ~affine ~region ~property

let num_relus t = Nn.Affine.(t.affine.num_relus)

let concrete_margin t x = Property.margin t.property (Nn.Affine.forward t.affine x)

let is_counterexample t x = Region.contains t.region x && concrete_margin t x <= 0.0

let worst_row_gradient t x =
  let values = Nn.Network.trace t.network x in
  let c = t.property.Property.c and d = t.property.Property.d in
  let vals = Matrix.mv c values.(Array.length values - 1) in
  let worst = ref 0 in
  Array.iteri (fun i v -> if v +. d.(i) < vals.(!worst) +. d.(!worst) then worst := i) vals;
  Nn.Network.trace_gradient t.network values ~d_out:(Matrix.row c !worst)
