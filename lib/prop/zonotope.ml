module Matrix = Abonn_tensor.Matrix
module Affine = Abonn_nn.Affine
module Region = Abonn_spec.Region
module Property = Abonn_spec.Property
module Problem = Abonn_spec.Problem

(* One layer of affine forms: value_i = centers.(i) + Σ_k gens.(i).(k)·ε_k
   with ε ∈ [-1,1]^nsym.  All neurons of a stage share the symbol count;
   ReLU stages append one symbol per unstable neuron. *)
type forms = {
  centers : float array;
  gens : float array array;
  nsym : int;
}

let concretize_neuron f i =
  let c = f.centers.(i) in
  let dev = ref 0.0 in
  let g = f.gens.(i) in
  for k = 0 to f.nsym - 1 do
    dev := !dev +. Float.abs g.(k)
  done;
  (c -. !dev, c +. !dev)

let concretize f =
  let n = Array.length f.centers in
  let lo = Array.make n 0.0 and hi = Array.make n 0.0 in
  for i = 0 to n - 1 do
    let l, h = concretize_neuron f i in
    lo.(i) <- l;
    hi.(i) <- h
  done;
  Bounds.create ~lower:lo ~upper:hi

let input_forms (region : Region.t) =
  let n = Array.length region.Region.lower in
  let centers = Region.center region in
  let radius = Region.radius region in
  { centers;
    gens = Array.init n (fun i -> Array.init n (fun k -> if k = i then radius.(i) else 0.0));
    nsym = n }

let affine_image (w : Matrix.t) bias f =
  let rows = w.Matrix.rows in
  let centers = Array.make rows 0.0 in
  let gens = Array.make_matrix rows f.nsym 0.0 in
  for i = 0 to rows - 1 do
    let acc_c = ref bias.(i) in
    let gi = gens.(i) in
    for j = 0 to w.Matrix.cols - 1 do
      let wij = Matrix.get w i j in
      if wij <> 0.0 then begin
        acc_c := !acc_c +. (wij *. f.centers.(j));
        let gj = f.gens.(j) in
        for k = 0 to f.nsym - 1 do
          gi.(k) <- gi.(k) +. (wij *. gj.(k))
        done
      end
    done;
    centers.(i) <- !acc_c
  done;
  { centers; gens; nsym = f.nsym }

(* DeepZ minimal-area ReLU transformer, driven by the (split-clamped)
   bounds [b]: one fresh symbol per unstable neuron. *)
let relu_image (b : Bounds.t) f =
  let n = Array.length f.centers in
  let unstable = Bounds.unstable_indices b in
  let fresh = List.length unstable in
  let fresh_index = Hashtbl.create 16 in
  List.iteri (fun k i -> Hashtbl.replace fresh_index i (f.nsym + k)) unstable;
  let nsym = f.nsym + fresh in
  let centers = Array.make n 0.0 in
  let gens = Array.make_matrix n nsym 0.0 in
  for i = 0 to n - 1 do
    let gi = gens.(i) in
    match Bounds.relu_state_of b i with
    | Bounds.Stable_inactive -> ()
    | Bounds.Stable_active ->
      centers.(i) <- f.centers.(i);
      Array.blit f.gens.(i) 0 gi 0 f.nsym
    | Bounds.Unstable ->
      let l = b.Bounds.lower.(i) and u = b.Bounds.upper.(i) in
      let lambda = u /. (u -. l) in
      let beta = -.u *. l /. (2.0 *. (u -. l)) in
      centers.(i) <- (lambda *. f.centers.(i)) +. beta;
      for k = 0 to f.nsym - 1 do
        gi.(k) <- lambda *. f.gens.(i).(k)
      done;
      gi.(Hashtbl.find fresh_index i) <- beta
  done;
  { centers; gens; nsym }

(* The forms entering affine layer [l]: the input forms at [l = 0], else
   the ReLU image of layer [l - 1]'s pre-activation forms under its
   final (split-clamped) bounds. *)
let layer_input pre_bounds l forms = if l = 0 then forms else relu_image pre_bounds.(l - 1) forms

(* The domain's own bound of hidden layer [l] is the concretisation of
   its pre-activation forms, which the pass intersects with plain
   forward intervals (the DeepZ ReLU can concretise below 0, so neither
   dominates; production stacks keep the tighter of the two).  Returns
   the pass and the last forms [layer_input] reads. *)
let propagate (problem : Problem.t) gamma =
  let affine = problem.Problem.affine in
  let forms = ref (input_forms problem.Problem.region) in
  let refine l pre_bounds =
    let w = Affine.(affine.weights.(l)) and b = Affine.(affine.biases.(l)) in
    forms := affine_image w b (layer_input pre_bounds l !forms);
    concretize !forms
  in
  Result.map (fun pass -> (pass, !forms)) (Bounds.forward ~refine problem gamma)

let run (problem : Problem.t) gamma =
  let affine = problem.Problem.affine in
  let region = problem.Problem.region in
  let prop = problem.Problem.property in
  match propagate problem gamma with
  | Error partial -> Outcome.vacuous ~pre_bounds:partial
  | Ok (pass, forms) ->
    let last = Affine.num_layers affine - 1 in
    let out =
      affine_image Affine.(affine.weights.(last)) Affine.(affine.biases.(last))
        (layer_input pass.Bounds.pre_bounds last forms)
    in
    (* property rows as affine forms over the same symbols, each kept
       with the interval row bound when that is tighter *)
    let row_gens = Array.make prop.Property.c.Matrix.rows [||] in
    let row_lower =
      Array.mapi
        (fun r ibp_row ->
          let centre = ref prop.Property.d.(r) in
          let g = Array.make out.nsym 0.0 in
          for j = 0 to Array.length out.centers - 1 do
            let crj = Matrix.get prop.Property.c r j in
            if crj <> 0.0 then begin
              centre := !centre +. (crj *. out.centers.(j));
              let gj = out.gens.(j) in
              for k = 0 to out.nsym - 1 do
                g.(k) <- g.(k) +. (crj *. gj.(k))
              done
            end
          done;
          row_gens.(r) <- g;
          let dev = Array.fold_left (fun a v -> a +. Float.abs v) 0.0 g in
          Float.max (!centre -. dev) ibp_row)
        (Bounds.row_lower problem pass)
    in
    (* worst-case corner over the input noise symbols *)
    let candidate worst =
      let g = row_gens.(worst) in
      let centre = Region.center region in
      Array.init Affine.(affine.input_dim) (fun j ->
          if g.(j) > 0.0 then region.Region.lower.(j)
          else if g.(j) < 0.0 then region.Region.upper.(j)
          else centre.(j))
    in
    Outcome.of_rows ~candidate ~pre_bounds:pass.Bounds.pre_bounds row_lower

let hidden_bounds problem gamma =
  match propagate problem gamma with
  | Ok (pass, _) -> Some pass.Bounds.pre_bounds
  | Error _ -> None
