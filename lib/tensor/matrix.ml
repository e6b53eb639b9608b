type t = { rows : int; cols : int; data : float array }

let create rows cols v =
  if rows < 0 || cols < 0 then invalid_arg "Matrix.create: negative dims";
  { rows; cols; data = Array.make (rows * cols) v }

let zeros rows cols = create rows cols 0.0

let identity n =
  let m = zeros n n in
  for i = 0 to n - 1 do
    m.data.((i * n) + i) <- 1.0
  done;
  m

let init rows cols f =
  { rows; cols; data = Array.init (rows * cols) (fun k -> f (k / cols) (k mod cols)) }

let of_rows rows_arr =
  let rows = Array.length rows_arr in
  if rows = 0 then invalid_arg "Matrix.of_rows: empty";
  let cols = Array.length rows_arr.(0) in
  Array.iter
    (fun r -> if Array.length r <> cols then invalid_arg "Matrix.of_rows: ragged rows")
    rows_arr;
  init rows cols (fun i j -> rows_arr.(i).(j))

let copy m = { m with data = Array.copy m.data }

let get m i j =
  if i < 0 || i >= m.rows || j < 0 || j >= m.cols then invalid_arg "Matrix.get: out of bounds";
  m.data.((i * m.cols) + j)

let set m i j v =
  if i < 0 || i >= m.rows || j < 0 || j >= m.cols then invalid_arg "Matrix.set: out of bounds";
  m.data.((i * m.cols) + j) <- v

let row m i =
  if i < 0 || i >= m.rows then invalid_arg "Matrix.row: out of bounds";
  Array.sub m.data (i * m.cols) m.cols

let col m j =
  if j < 0 || j >= m.cols then invalid_arg "Matrix.col: out of bounds";
  Array.init m.rows (fun i -> m.data.((i * m.cols) + j))

let transpose m = init m.cols m.rows (fun i j -> m.data.((j * m.cols) + i))

let check_same name a b =
  if a.rows <> b.rows || a.cols <> b.cols then
    invalid_arg
      (Printf.sprintf "Matrix.%s: shape mismatch (%dx%d vs %dx%d)" name a.rows a.cols b.rows b.cols)

let add a b =
  check_same "add" a b;
  { a with data = Array.mapi (fun k x -> x +. b.data.(k)) a.data }

let sub a b =
  check_same "sub" a b;
  { a with data = Array.mapi (fun k x -> x -. b.data.(k)) a.data }

let scale s m = { m with data = Array.map (fun x -> s *. x) m.data }

let map f m = { m with data = Array.map f m.data }

(* Cache-friendly ikj loop with accumulation directly into the output. *)
let matmul a b =
  if a.cols <> b.rows then
    invalid_arg
      (Printf.sprintf "Matrix.matmul: inner dims mismatch (%dx%d * %dx%d)" a.rows a.cols b.rows b.cols);
  let c = zeros a.rows b.cols in
  for i = 0 to a.rows - 1 do
    for k = 0 to a.cols - 1 do
      let aik = a.data.((i * a.cols) + k) in
      if aik <> 0.0 then begin
        let a_off = i * b.cols and b_off = k * b.cols in
        for j = 0 to b.cols - 1 do
          c.data.(a_off + j) <- c.data.(a_off + j) +. (aik *. b.data.(b_off + j))
        done
      end
    done
  done;
  c

let mv m x =
  if m.cols <> Array.length x then invalid_arg "Matrix.mv: dimension mismatch";
  let y = Array.make m.rows 0.0 in
  for i = 0 to m.rows - 1 do
    let off = i * m.cols in
    let acc = ref 0.0 in
    for j = 0 to m.cols - 1 do
      acc := !acc +. (m.data.(off + j) *. x.(j))
    done;
    y.(i) <- !acc
  done;
  y

(* y += mᵀx, row by row: the one summation order [tmv] and [tmv_into]
   share, so both give bit-identical results. *)
let tmv_acc m x y =
  for i = 0 to m.rows - 1 do
    let xi = x.(i) in
    if xi <> 0.0 then begin
      let off = i * m.cols in
      for j = 0 to m.cols - 1 do
        y.(j) <- y.(j) +. (m.data.(off + j) *. xi)
      done
    end
  done

let tmv m x =
  if m.rows <> Array.length x then invalid_arg "Matrix.tmv: dimension mismatch";
  let y = Array.make m.cols 0.0 in
  tmv_acc m x y;
  y

let tmv_into m x y =
  if m.rows <> Array.length x || m.cols <> Array.length y then
    invalid_arg "Matrix.tmv_into: dimension mismatch";
  Array.fill y 0 m.cols 0.0;
  tmv_acc m x y

let random_gaussian rng rows cols ~stddev =
  init rows cols (fun _ _ -> stddev *. Abonn_util.Rng.gaussian rng)

let frobenius m = sqrt (Array.fold_left (fun a x -> a +. (x *. x)) 0.0 m.data)

let approx_equal ?(tol = 1e-9) a b =
  a.rows = b.rows && a.cols = b.cols
  && Vector.approx_equal ~tol a.data b.data

let pp fmt m =
  Format.fprintf fmt "@[<v>";
  for i = 0 to m.rows - 1 do
    Format.fprintf fmt "[";
    for j = 0 to m.cols - 1 do
      if j > 0 then Format.fprintf fmt " ";
      Format.fprintf fmt "%g" m.data.((i * m.cols) + j)
    done;
    Format.fprintf fmt "]";
    if i < m.rows - 1 then Format.fprintf fmt "@,"
  done;
  Format.fprintf fmt "@]"
