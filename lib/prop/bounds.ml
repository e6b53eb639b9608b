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
  | Abonn_spec.Split.Active -> lower.(idx) <- Float.max lower.(idx) 0.0
  | Abonn_spec.Split.Inactive -> upper.(idx) <- Float.min upper.(idx) 0.0
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

let affine_image (w : Abonn_tensor.Matrix.t) b ~lo ~hi =
  let module Matrix = Abonn_tensor.Matrix in
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
