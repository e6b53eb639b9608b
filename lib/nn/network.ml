type t = { layers : Layer.t array; input_dim : int; output_dim : int }

let create layer_list =
  match layer_list with
  | [] -> invalid_arg "Network.create: empty layer list"
  | first :: _ ->
    let layers = Array.of_list layer_list in
    let n = Array.length layers in
    for i = 0 to n - 2 do
      let out_i = Layer.output_dim layers.(i) in
      let in_next = Layer.input_dim layers.(i + 1) in
      if out_i <> in_next then
        invalid_arg
          (Printf.sprintf "Network.create: layer %d outputs %d but layer %d expects %d" i out_i
             (i + 1) in_next)
    done;
    { layers;
      input_dim = Layer.input_dim first;
      output_dim = Layer.output_dim layers.(n - 1) }

let layers net = Array.to_list net.layers

let input_dim net = net.input_dim

let output_dim net = net.output_dim

let forward net x = Array.fold_left (fun acc layer -> Layer.forward layer acc) x net.layers

let trace net x =
  let n = Array.length net.layers in
  let values = Array.make (n + 1) x in
  for i = 0 to n - 1 do
    values.(i + 1) <- Layer.forward net.layers.(i) values.(i)
  done;
  values

let num_params net = Array.fold_left (fun acc l -> acc + Layer.num_params l) 0 net.layers

let num_relus net =
  Array.fold_left
    (fun acc layer -> match layer with Layer.Relu n -> acc + n | Layer.Linear _ | Layer.Conv2d _ -> acc)
    0 net.layers

let num_neurons net =
  Array.fold_left
    (fun acc layer ->
      match layer with
      | Layer.Linear _ | Layer.Conv2d _ -> acc + Layer.output_dim layer
      | Layer.Relu _ -> acc)
    0 net.layers

let trace_gradient net values ~d_out =
  if Array.length d_out <> net.output_dim then
    invalid_arg "Network.trace_gradient: wrong d_out size";
  let g = ref d_out in
  for i = Array.length net.layers - 1 downto 0 do
    g := Layer.input_gradient net.layers.(i) ~input:values.(i) ~d_out:!g
  done;
  !g

let input_gradient net x ~d_out = trace_gradient net (trace net x) ~d_out

let predict net x =
  let y = forward net x in
  Abonn_tensor.Vector.argmax y
