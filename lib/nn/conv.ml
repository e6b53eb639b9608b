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
  bias : float array;
}

let out_h c = ((c.in_h + (2 * c.padding) - c.kernel_h) / c.stride) + 1

let out_w c = ((c.in_w + (2 * c.padding) - c.kernel_w) / c.stride) + 1

let input_dim c = c.in_channels * c.in_h * c.in_w

let output_dim c = c.out_channels * out_h c * out_w c

let weight_index c ~oc ~ic ~ky ~kx =
  (((((oc * c.in_channels) + ic) * c.kernel_h) + ky) * c.kernel_w) + kx

let in_index c ~ic ~y ~x = (((ic * c.in_h) + y) * c.in_w) + x

let out_index c ~oc ~y ~x = (((oc * out_h c) + y) * out_w c) + x

let create rng ~in_channels ~in_h ~in_w ~out_channels ~kernel ~stride ~padding =
  if kernel <= 0 || stride <= 0 || padding < 0 then invalid_arg "Conv.create: bad geometry";
  let fan_in = in_channels * kernel * kernel in
  let stddev = sqrt (2.0 /. float_of_int fan_in) in
  let nw = out_channels * in_channels * kernel * kernel in
  let weight = Array.init nw (fun _ -> stddev *. Abonn_util.Rng.gaussian rng) in
  let bias = Array.make out_channels 0.0 in
  let c =
    { in_channels; in_h; in_w; out_channels; kernel_h = kernel; kernel_w = kernel;
      stride; padding; weight; bias }
  in
  if out_h c <= 0 || out_w c <= 0 then invalid_arg "Conv.create: empty output";
  c

(* Iterate over the valid (input y, input x) cells touched by kernel
   position (ky, kx) for output pixel (oy, ox); padding cells contribute
   nothing because the padded value is zero. *)
let forward c x =
  if Array.length x <> input_dim c then invalid_arg "Conv.forward: wrong input size";
  let oh = out_h c and ow = out_w c in
  let y = Array.make (output_dim c) 0.0 in
  for oc = 0 to c.out_channels - 1 do
    for oy = 0 to oh - 1 do
      for ox = 0 to ow - 1 do
        let acc = ref c.bias.(oc) in
        for ic = 0 to c.in_channels - 1 do
          for ky = 0 to c.kernel_h - 1 do
            let iy = (oy * c.stride) + ky - c.padding in
            if iy >= 0 && iy < c.in_h then
              for kx = 0 to c.kernel_w - 1 do
                let ix = (ox * c.stride) + kx - c.padding in
                if ix >= 0 && ix < c.in_w then
                  acc :=
                    !acc
                    +. (c.weight.(weight_index c ~oc ~ic ~ky ~kx)
                        *. x.(in_index c ~ic ~y:iy ~x:ix))
              done
          done
        done;
        y.(out_index c ~oc ~y:oy ~x:ox) <- !acc
      done
    done
  done;
  y

(* The two halves of the convolution's backward pass, each in the
   forward pass's loop order and skipping zero output gradients, so
   every accumulator sums its terms in one fixed order. *)
let input_gradient c ~d_out =
  if Array.length d_out <> output_dim c then invalid_arg "Conv.input_gradient: wrong d_out size";
  let oh = out_h c and ow = out_w c in
  let d_in = Array.make (input_dim c) 0.0 in
  for oc = 0 to c.out_channels - 1 do
    for oy = 0 to oh - 1 do
      for ox = 0 to ow - 1 do
        let g = d_out.(out_index c ~oc ~y:oy ~x:ox) in
        if g <> 0.0 then
          for ic = 0 to c.in_channels - 1 do
            for ky = 0 to c.kernel_h - 1 do
              let iy = (oy * c.stride) + ky - c.padding in
              if iy >= 0 && iy < c.in_h then
                for kx = 0 to c.kernel_w - 1 do
                  let ix = (ox * c.stride) + kx - c.padding in
                  if ix >= 0 && ix < c.in_w then begin
                    let ii = in_index c ~ic ~y:iy ~x:ix in
                    d_in.(ii) <- d_in.(ii) +. (g *. c.weight.(weight_index c ~oc ~ic ~ky ~kx))
                  end
                done
            done
          done
      done
    done
  done;
  d_in

let add_param_gradient c ~input ~d_out ~d_weight ~d_bias =
  if Array.length input <> input_dim c then invalid_arg "Conv.add_param_gradient: wrong input size";
  if Array.length d_out <> output_dim c then invalid_arg "Conv.add_param_gradient: wrong d_out size";
  if Array.length d_weight <> Array.length c.weight || Array.length d_bias <> c.out_channels then
    invalid_arg "Conv.add_param_gradient: wrong gradient buffer size";
  let oh = out_h c and ow = out_w c in
  for oc = 0 to c.out_channels - 1 do
    for oy = 0 to oh - 1 do
      for ox = 0 to ow - 1 do
        let g = d_out.(out_index c ~oc ~y:oy ~x:ox) in
        if g <> 0.0 then begin
          d_bias.(oc) <- d_bias.(oc) +. g;
          for ic = 0 to c.in_channels - 1 do
            for ky = 0 to c.kernel_h - 1 do
              let iy = (oy * c.stride) + ky - c.padding in
              if iy >= 0 && iy < c.in_h then
                for kx = 0 to c.kernel_w - 1 do
                  let ix = (ox * c.stride) + kx - c.padding in
                  if ix >= 0 && ix < c.in_w then begin
                    let wi = weight_index c ~oc ~ic ~ky ~kx in
                    d_weight.(wi) <- d_weight.(wi) +. (g *. input.(in_index c ~ic ~y:iy ~x:ix))
                  end
                done
            done
          done
        end
      done
    done
  done

let to_matrix c =
  let oh = out_h c and ow = out_w c in
  let m = Abonn_tensor.Matrix.zeros (output_dim c) (input_dim c) in
  let b = Array.make (output_dim c) 0.0 in
  for oc = 0 to c.out_channels - 1 do
    for oy = 0 to oh - 1 do
      for ox = 0 to ow - 1 do
        let r = out_index c ~oc ~y:oy ~x:ox in
        b.(r) <- c.bias.(oc);
        for ic = 0 to c.in_channels - 1 do
          for ky = 0 to c.kernel_h - 1 do
            let iy = (oy * c.stride) + ky - c.padding in
            if iy >= 0 && iy < c.in_h then
              for kx = 0 to c.kernel_w - 1 do
                let ix = (ox * c.stride) + kx - c.padding in
                if ix >= 0 && ix < c.in_w then
                  Abonn_tensor.Matrix.set m r
                    (in_index c ~ic ~y:iy ~x:ix)
                    (c.weight.(weight_index c ~oc ~ic ~ky ~kx))
              done
          done
        done
      done
    done
  done;
  (m, b)
