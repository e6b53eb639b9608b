module Matrix = Abonn_tensor.Matrix
module Affine = Abonn_nn.Affine
module Split = Abonn_spec.Split
module Region = Abonn_spec.Region
module Property = Abonn_spec.Property
module Problem = Abonn_spec.Problem

let affine_interval w b ~lo ~hi = Bounds.affine_image w b ~lo ~hi

let splits_for_layer affine gamma l =
  List.filter_map
    (fun (c : Split.constr) ->
      let layer, idx = Affine.relu_position affine c.Split.relu in
      if layer = l then Some (idx, c.Split.phase) else None)
    gamma

let compute_hidden_bounds (problem : Problem.t) gamma =
  let affine = problem.Problem.affine in
  let region = problem.Problem.region in
  let n_hidden = Affine.num_layers affine - 1 in
  let pre_bounds = Array.make n_hidden (Bounds.create ~lower:[||] ~upper:[||]) in
  let rec loop l lo hi =
    if l >= n_hidden then Ok (pre_bounds, lo, hi)
    else begin
      let zlo, zhi = affine_interval Affine.(affine.weights.(l)) Affine.(affine.biases.(l)) ~lo ~hi in
      let b = Bounds.create ~lower:zlo ~upper:zhi in
      let b =
        List.fold_left
          (fun b (idx, phase) -> Bounds.apply_split b ~idx ~phase)
          b (splits_for_layer affine gamma l)
      in
      if Bounds.is_infeasible b then Error (Array.sub pre_bounds 0 l)
      else begin
        pre_bounds.(l) <- b;
        let post_lo = Array.map (fun v -> Float.max 0.0 v) b.Bounds.lower in
        let post_hi = Array.map (fun v -> Float.max 0.0 v) b.Bounds.upper in
        loop (l + 1) post_lo post_hi
      end
    end
  in
  loop 0 (Array.copy region.Region.lower) (Array.copy region.Region.upper)

(* The output box's lower bound on each property row c·y + d, or
   [Error] with the bounds before the layer whose splits are
   infeasible. *)
let row_bounds (problem : Problem.t) gamma =
  let affine = problem.Problem.affine in
  let prop = problem.Problem.property in
  match compute_hidden_bounds problem gamma with
  | Error partial -> Error partial
  | Ok (pre_bounds, lo, hi) ->
    let last = Affine.num_layers affine - 1 in
    let ylo, yhi = affine_interval Affine.(affine.weights.(last)) Affine.(affine.biases.(last)) ~lo ~hi in
    let m = prop.Property.c.Matrix.rows in
    let row_lower =
      Array.init m (fun i ->
          let acc = ref prop.Property.d.(i) in
          for j = 0 to Array.length ylo - 1 do
            let a = Matrix.get prop.Property.c i j in
            acc := !acc +. (if a > 0.0 then a *. ylo.(j) else a *. yhi.(j))
          done;
          !acc)
    in
    Ok (pre_bounds, row_lower, Array.fold_left Float.min infinity row_lower)

let phat problem gamma =
  match row_bounds problem gamma with
  | Error partial -> (Outcome.vacuous ~pre_bounds:partial).Outcome.phat
  | Ok (_, _, phat) -> phat

let run (problem : Problem.t) gamma =
  let region = problem.Problem.region in
  let prop = problem.Problem.property in
  match row_bounds problem gamma with
  | Error partial -> Outcome.vacuous ~pre_bounds:partial
  | Ok (pre_bounds, row_lower, phat) ->
    let candidate =
      if phat > 0.0 then None
      else begin
        (* First-order candidate: gradient of the worst row at the box
           centre, descended to the corresponding corner. *)
        let worst = ref 0 in
        Array.iteri (fun i v -> if v < row_lower.(!worst) then worst := i) row_lower;
        let d_out = Matrix.row prop.Property.c !worst in
        let centre = Region.center region in
        let g =
          Abonn_nn.Network.input_gradient problem.Problem.network centre ~d_out
        in
        Some
          (Array.mapi
             (fun j gj -> if gj > 0.0 then region.Region.lower.(j) else region.Region.upper.(j))
             g)
      end
    in
    Outcome.make ~phat ?candidate ~pre_bounds ~row_lower ()

let hidden_bounds problem gamma =
  match compute_hidden_bounds problem gamma with
  | Ok (b, _, _) -> Some b
  | Error _ -> None
