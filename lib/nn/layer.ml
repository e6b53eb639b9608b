module Matrix = Abonn_tensor.Matrix

type t =
  | Linear of { weight : Matrix.t; bias : float array }
  | Conv2d of Conv.t
  | Relu of int

let input_dim = function
  | Linear { weight; _ } -> weight.Matrix.cols
  | Conv2d c -> Conv.input_dim c
  | Relu n -> n

let output_dim = function
  | Linear { weight; _ } -> weight.Matrix.rows
  | Conv2d c -> Conv.output_dim c
  | Relu n -> n

let forward layer x =
  if Array.length x <> input_dim layer then
    invalid_arg
      (Printf.sprintf "Layer.forward: expected input of size %d, got %d" (input_dim layer)
         (Array.length x));
  match layer with
  | Linear { weight; bias } ->
    let y = Matrix.mv weight x in
    Array.mapi (fun i yi -> yi +. bias.(i)) y
  | Conv2d c -> Conv.forward c x
  | Relu _ -> Array.map (fun v -> Float.max 0.0 v) x

let is_affine = function Linear _ | Conv2d _ -> true | Relu _ -> false

let linear weight bias =
  if Array.length bias <> weight.Matrix.rows then
    invalid_arg "Layer.linear: bias length must equal row count";
  Linear { weight; bias }

let random_linear rng ~in_dim ~out_dim =
  let stddev = sqrt (2.0 /. float_of_int in_dim) in
  let weight = Matrix.random_gaussian rng out_dim in_dim ~stddev in
  Linear { weight; bias = Array.make out_dim 0.0 }

let num_params = function
  | Linear { weight; bias } -> (weight.Matrix.rows * weight.Matrix.cols) + Array.length bias
  | Conv2d c -> Array.length c.Conv.weight + Array.length c.Conv.bias
  | Relu _ -> 0

let input_gradient layer ~input ~d_out =
  match layer with
  | Linear { weight; _ } -> Matrix.tmv weight d_out
  | Conv2d c -> Conv.input_gradient c ~d_out
  | Relu _ -> Array.mapi (fun i g -> if input.(i) > 0.0 then g else 0.0) d_out
