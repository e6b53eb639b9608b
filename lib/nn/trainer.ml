type sample = { features : float array; label : int }

type config = {
  epochs : int;
  batch_size : int;
  learning_rate : float;
  lr_decay : float;
  verbose : bool;
}

let default_config =
  { epochs = 12; batch_size = 16; learning_rate = 0.05; lr_decay = 0.9; verbose = false }

let softmax logits =
  let m = Array.fold_left Float.max logits.(0) logits in
  let exps = Array.map (fun v -> exp (v -. m)) logits in
  let z = Array.fold_left ( +. ) 0.0 exps in
  Array.map (fun e -> e /. z) exps

let cross_entropy_grad logits label =
  let probs = softmax logits in
  let loss = -.log (Float.max 1e-12 probs.(label)) in
  let grad = Array.mapi (fun i p -> if i = label then p -. 1.0 else p) probs in
  (loss, grad)

(* A layer's weights and biases: the arrays [train] steps in place. *)
let params = function
  | Layer.Linear { weight; bias } -> Some (weight.Abonn_tensor.Matrix.data, bias)
  | Layer.Conv2d c -> Some (c.Conv.weight, c.Conv.bias)
  | Layer.Relu _ -> None

(* One layer's batch gradient, reused for every batch.  A conv layer
   sums each sample's terms in [sample] before adding them, so every
   entry is summed per sample first and then across the batch, in
   sample order. *)
type buffer = { weight : float array; bias : float array; sample : float array * float array }

let buffer_of layer =
  Option.map
    (fun (w, b) ->
      let zeros () = (Array.make (Array.length w) 0.0, Array.make (Array.length b) 0.0) in
      let weight, bias = zeros () in
      let sample = match layer with Layer.Conv2d _ -> zeros () | _ -> ([||], [||]) in
      { weight; bias; sample })
    (params layer)

(* Add one sample's parameter gradient into [g] ([first]: overwrite
   it), given the layer's input and output gradient. *)
let accumulate ~first layer g ~input ~d_out =
  match layer with
  | Layer.Linear { weight; _ } ->
    let cols = weight.Abonn_tensor.Matrix.cols in
    Array.iteri
      (fun i di ->
        let off = i * cols in
        for j = 0 to cols - 1 do
          let v = di *. input.(j) in
          g.weight.(off + j) <- (if first then v else g.weight.(off + j) +. v)
        done;
        g.bias.(i) <- (if first then di else g.bias.(i) +. di))
      d_out
  | Layer.Conv2d c ->
    let d_weight, d_bias = if first then (g.weight, g.bias) else g.sample in
    Array.fill d_weight 0 (Array.length d_weight) 0.0;
    Array.fill d_bias 0 (Array.length d_bias) 0.0;
    Conv.add_param_gradient c ~input ~d_out ~d_weight ~d_bias;
    if not first then begin
      Array.iteri (fun k v -> g.weight.(k) <- g.weight.(k) +. v) d_weight;
      Array.iteri (fun k v -> g.bias.(k) <- g.bias.(k) +. v) d_bias
    end
  | Layer.Relu _ -> ()

(* params -= lr * (scale * grad), in place *)
let descend params grad ~lr ~scale =
  Array.iteri (fun k p -> params.(k) <- p -. (lr *. (scale *. grad.(k)))) params

(* A copy whose parameter arrays the trainer may overwrite. *)
let fresh_copy net =
  Network.create
    (List.map
       (function
         | Layer.Linear { weight; bias } ->
           Layer.linear (Abonn_tensor.Matrix.copy weight) (Array.copy bias)
         | Layer.Conv2d c ->
           Layer.Conv2d { c with Conv.weight = Array.copy c.Conv.weight; bias = Array.copy c.Conv.bias }
         | Layer.Relu n -> Layer.Relu n)
       (Network.layers net))

let train ?(config = default_config) rng net samples =
  if Array.length samples = 0 then invalid_arg "Trainer.train: no samples";
  let order = Array.init (Array.length samples) (fun i -> i) in
  let net = fresh_copy net in
  let layers = net.Network.layers in
  let n_layers = Array.length layers in
  let bufs = Array.map buffer_of layers in
  let lr = ref config.learning_rate in
  for epoch = 1 to config.epochs do
    Abonn_util.Rng.shuffle rng order;
    let i = ref 0 in
    let n = Array.length order in
    while !i < n do
      let batch_end = Stdlib.min n (!i + config.batch_size) in
      let batch_n = batch_end - !i in
      for k = !i to batch_end - 1 do
        let s = samples.(order.(k)) in
        let values = Network.trace net s.features in
        let _, d_out = cross_entropy_grad values.(n_layers) s.label in
        (* layer 0's input gradient is never read *)
        let g = ref d_out in
        for l = n_layers - 1 downto 0 do
          Option.iter
            (fun buf -> accumulate ~first:(k = !i) layers.(l) buf ~input:values.(l) ~d_out:!g)
            bufs.(l);
          if l > 0 then g := Layer.input_gradient layers.(l) ~input:values.(l) ~d_out:!g
        done
      done;
      let scale = 1.0 /. float_of_int batch_n in
      Array.iteri
        (fun l layer ->
          match params layer, bufs.(l) with
          | Some (w, b), Some g ->
            descend w g.weight ~lr:!lr ~scale;
            descend b g.bias ~lr:!lr ~scale
          | _ -> ())
        layers;
      i := batch_end
    done;
    lr := !lr *. config.lr_decay;
    if config.verbose then
      Printf.printf "epoch %d: loss=%.4f acc=%.3f\n%!" epoch
        (let total = ref 0.0 in
         Array.iter
           (fun s ->
             let logits = Network.forward net s.features in
             let loss, _ = cross_entropy_grad logits s.label in
             total := !total +. loss)
           samples;
         !total /. float_of_int (Array.length samples))
        (let correct = ref 0 in
         Array.iter (fun s -> if Network.predict net s.features = s.label then incr correct) samples;
         float_of_int !correct /. float_of_int (Array.length samples))
  done;
  net

let accuracy net samples =
  if Array.length samples = 0 then 0.0
  else begin
    let correct = ref 0 in
    Array.iter (fun s -> if Network.predict net s.features = s.label then incr correct) samples;
    float_of_int !correct /. float_of_int (Array.length samples)
  end

let average_loss net samples =
  if Array.length samples = 0 then 0.0
  else begin
    let total = ref 0.0 in
    Array.iter
      (fun s ->
        let logits = Network.forward net s.features in
        let loss, _ = cross_entropy_grad logits s.label in
        total := !total +. loss)
      samples;
    !total /. float_of_int (Array.length samples)
  end
