module Matrix = Abonn_tensor.Matrix
module Affine = Abonn_nn.Affine
module Split = Abonn_spec.Split
module Region = Abonn_spec.Region
module Property = Abonn_spec.Property
module Problem = Abonn_spec.Problem

type t = { lower : float array; upper : float array }

let create ~lower ~upper =
  if Array.length lower <> Array.length upper then invalid_arg "Bounds.create: length mismatch";
  { lower = Array.copy lower; upper = Array.copy upper }

let dim t = Array.length t.lower

let is_infeasible t =
  let bad = ref false in
  for i = 0 to dim t - 1 do
    if t.lower.(i) > t.upper.(i) +. 1e-12 then bad := true
  done;
  !bad

let apply_split t ~idx ~phase =
  if idx < 0 || idx >= dim t then invalid_arg "Bounds.apply_split: index out of range";
  let lower = Array.copy t.lower and upper = Array.copy t.upper in
  begin match phase with
  | Split.Active -> lower.(idx) <- Float.max lower.(idx) 0.0
  | Split.Inactive -> upper.(idx) <- Float.min upper.(idx) 0.0
  end;
  { lower; upper }

type relu_state = Stable_active | Stable_inactive | Unstable

let relu_state_of t i =
  if t.lower.(i) >= 0.0 then Stable_active
  else if t.upper.(i) <= 0.0 then Stable_inactive
  else Unstable

let unstable_indices t =
  let rec loop i acc =
    if i < 0 then acc
    else begin
      let acc =
        match relu_state_of t i with
        | Unstable -> i :: acc
        | Stable_active | Stable_inactive -> acc
      in
      loop (i - 1) acc
    end
  in
  loop (dim t - 1) []

let num_unstable t = List.length (unstable_indices t)

let width t i = t.upper.(i) -. t.lower.(i)

let copy t = { lower = Array.copy t.lower; upper = Array.copy t.upper }

let affine_image (w : Matrix.t) b ~lo ~hi =
  let n = w.Matrix.rows and m = w.Matrix.cols and data = w.Matrix.data in
  if Array.length b <> n || Array.length lo <> m || Array.length hi <> m then
    invalid_arg "Bounds.affine_image: dimension mismatch";
  let out_lo = Array.make n 0.0 and out_hi = Array.make n 0.0 in
  for i = 0 to n - 1 do
    let off = i * m in
    let acc_lo = ref b.(i) and acc_hi = ref b.(i) in
    for j = 0 to m - 1 do
      let a = data.(off + j) in
      if a > 0.0 then begin
        acc_lo := !acc_lo +. (a *. lo.(j));
        acc_hi := !acc_hi +. (a *. hi.(j))
      end
      else if a < 0.0 then begin
        acc_lo := !acc_lo +. (a *. hi.(j));
        acc_hi := !acc_hi +. (a *. lo.(j))
      end
    done;
    out_lo.(i) <- !acc_lo;
    out_hi.(i) <- !acc_hi
  done;
  (out_lo, out_hi)

let intersect t ~lo ~hi =
  { lower = Array.mapi (fun i v -> Float.max v lo.(i)) t.lower;
    upper = Array.mapi (fun i v -> Float.min v hi.(i)) t.upper }

let apply_splits affine gamma l t =
  List.fold_left
    (fun t (c : Split.constr) ->
      let layer, idx = Affine.relu_position affine c.Split.relu in
      if layer = l then apply_split t ~idx ~phase:c.Split.phase else t)
    t gamma

type pass = { pre_bounds : t array; post_lo : float array; post_hi : float array }

(* The post-activation box of one pre-activation layer. *)
let relu_box t =
  (Array.map (fun v -> Float.max 0.0 v) t.lower, Array.map (fun v -> Float.max 0.0 v) t.upper)

let forward ?refine ?tighten ?(prefix = [||]) (problem : Problem.t) gamma =
  let affine = problem.Problem.affine in
  let region = problem.Problem.region in
  let n_hidden = Affine.num_layers affine - 1 in
  let pre_bounds = Array.make n_hidden { lower = [||]; upper = [||] } in
  let from = Array.length prefix in
  Array.blit prefix 0 pre_bounds 0 from;
  let rec loop l lo hi =
    if l >= n_hidden then Ok { pre_bounds; post_lo = lo; post_hi = hi }
    else begin
      let zlo, zhi = affine_image Affine.(affine.weights.(l)) Affine.(affine.biases.(l)) ~lo ~hi in
      let t =
        match refine with
        | Some own -> intersect (own l pre_bounds) ~lo:zlo ~hi:zhi
        | None -> { lower = zlo; upper = zhi }
      in
      let t = apply_splits affine gamma l t in
      let t = match tighten with Some f -> f l t | None -> t in
      if is_infeasible t then Error (Array.sub pre_bounds 0 l)
      else begin
        pre_bounds.(l) <- t;
        let lo, hi = relu_box t in
        loop (l + 1) lo hi
      end
    end
  in
  if from = 0 then loop 0 region.Region.lower region.Region.upper
  else begin
    let lo, hi = relu_box pre_bounds.(from - 1) in
    loop from lo hi
  end

let row_lower (problem : Problem.t) pass =
  let affine = problem.Problem.affine in
  let prop = problem.Problem.property in
  let last = Affine.num_layers affine - 1 in
  let ylo, yhi =
    affine_image Affine.(affine.weights.(last)) Affine.(affine.biases.(last))
      ~lo:pass.post_lo ~hi:pass.post_hi
  in
  Array.init prop.Property.c.Matrix.rows (fun i ->
      let acc = ref prop.Property.d.(i) in
      for j = 0 to Array.length ylo - 1 do
        let a = Matrix.get prop.Property.c i j in
        acc := !acc +. (if a > 0.0 then a *. ylo.(j) else a *. yhi.(j))
      done;
      !acc)
