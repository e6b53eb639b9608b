(* Tests for Abonn_tensor: vector arithmetic and matrix kernels, including
   qcheck algebraic properties (transpose involution, matmul-mv agreement). *)

module Vector = Abonn_tensor.Vector
module Matrix = Abonn_tensor.Matrix
module Rng = Abonn_util.Rng

let check_float = Alcotest.(check (float 1e-9))

let vec = Alcotest.testable Vector.pp (Vector.approx_equal ~tol:1e-9)

(* --- Vector --- *)

let test_vec_add () =
  Alcotest.check vec "add" [| 4.0; 6.0 |] (Vector.add [| 1.0; 2.0 |] [| 3.0; 4.0 |])

let test_vec_sub () =
  Alcotest.check vec "sub" [| -2.0; -2.0 |] (Vector.sub [| 1.0; 2.0 |] [| 3.0; 4.0 |])

let test_vec_dot () = check_float "dot" 11.0 (Vector.dot [| 1.0; 2.0 |] [| 3.0; 4.0 |])

let test_vec_dim_mismatch () =
  Alcotest.check_raises "mismatch" (Invalid_argument "Vector.dot: dimension mismatch (2 vs 3)")
    (fun () -> ignore (Vector.dot [| 1.0; 2.0 |] [| 1.0; 2.0; 3.0 |]))

let test_vec_norms () =
  check_float "norm2" 5.0 (Vector.norm2 [| 3.0; 4.0 |]);
  check_float "norm_inf" 4.0 (Vector.norm_inf [| 3.0; -4.0 |]);
  check_float "norm_inf empty" 0.0 (Vector.norm_inf [||])

let test_vec_axpy () =
  let y = [| 1.0; 1.0 |] in
  Vector.axpy 2.0 [| 1.0; 2.0 |] y;
  Alcotest.check vec "axpy" [| 3.0; 5.0 |] y

let test_vec_relu () =
  Alcotest.check vec "relu" [| 0.0; 0.0; 2.5 |] (Vector.relu [| -1.0; 0.0; 2.5 |])

let test_vec_argmax () =
  Alcotest.(check int) "argmax" 2 (Vector.argmax [| 1.0; 0.5; 3.0; 3.0 |]);
  Alcotest.(check int) "first on tie" 0 (Vector.argmax [| 5.0; 5.0 |])

let test_vec_clamp () =
  let lo = [| 0.0; 0.0 |] and hi = [| 1.0; 1.0 |] in
  Alcotest.check vec "clamp" [| 0.0; 1.0 |] (Vector.clamp ~lo ~hi [| -5.0; 5.0 |])

let test_vec_scale_neg () =
  Alcotest.check vec "scale" [| 2.0; -4.0 |] (Vector.scale 2.0 [| 1.0; -2.0 |]);
  Alcotest.check vec "neg" [| -1.0; 2.0 |] (Vector.neg [| 1.0; -2.0 |])

(* --- Matrix --- *)

let mat = Alcotest.testable Matrix.pp (Matrix.approx_equal ~tol:1e-9)

let m22 a b c d = Matrix.of_rows [| [| a; b |]; [| c; d |] |]

let test_mat_identity_mv () =
  let i3 = Matrix.identity 3 in
  Alcotest.check vec "I x = x" [| 1.0; 2.0; 3.0 |] (Matrix.mv i3 [| 1.0; 2.0; 3.0 |])

let test_mat_matmul () =
  let a = m22 1.0 2.0 3.0 4.0 in
  let b = m22 5.0 6.0 7.0 8.0 in
  Alcotest.check mat "product" (m22 19.0 22.0 43.0 50.0) (Matrix.matmul a b)

let test_mat_matmul_dims () =
  let a = Matrix.zeros 2 3 and b = Matrix.zeros 2 3 in
  Alcotest.check_raises "bad dims"
    (Invalid_argument "Matrix.matmul: inner dims mismatch (2x3 * 2x3)") (fun () ->
      ignore (Matrix.matmul a b))

let test_mat_transpose () =
  let a = Matrix.of_rows [| [| 1.0; 2.0; 3.0 |]; [| 4.0; 5.0; 6.0 |] |] in
  let at = Matrix.transpose a in
  Alcotest.(check int) "rows" 3 at.Matrix.rows;
  check_float "entry" 2.0 (Matrix.get at 1 0)

let test_mat_mv_tmv () =
  let a = Matrix.of_rows [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |]; [| 5.0; 6.0 |] |] in
  Alcotest.check vec "mv" [| 5.0; 11.0; 17.0 |] (Matrix.mv a [| 1.0; 2.0 |]);
  Alcotest.check vec "tmv" [| 22.0; 28.0 |] (Matrix.tmv a [| 1.0; 2.0; 3.0 |])

let test_mat_row_col () =
  let a = m22 1.0 2.0 3.0 4.0 in
  Alcotest.check vec "row" [| 3.0; 4.0 |] (Matrix.row a 1);
  Alcotest.check vec "col" [| 2.0; 4.0 |] (Matrix.col a 1)

let test_mat_add_sub_scale () =
  let a = m22 1.0 2.0 3.0 4.0 in
  let b = m22 1.0 1.0 1.0 1.0 in
  Alcotest.check mat "add" (m22 2.0 3.0 4.0 5.0) (Matrix.add a b);
  Alcotest.check mat "sub" (m22 0.0 1.0 2.0 3.0) (Matrix.sub a b);
  Alcotest.check mat "scale" (m22 2.0 4.0 6.0 8.0) (Matrix.scale 2.0 a)

let test_mat_of_rows_ragged () =
  Alcotest.check_raises "ragged" (Invalid_argument "Matrix.of_rows: ragged rows") (fun () ->
      ignore (Matrix.of_rows [| [| 1.0 |]; [| 1.0; 2.0 |] |]))

let test_mat_bounds_check () =
  let a = m22 1.0 2.0 3.0 4.0 in
  Alcotest.check_raises "get oob" (Invalid_argument "Matrix.get: out of bounds") (fun () ->
      ignore (Matrix.get a 2 0))

let test_mat_frobenius () =
  check_float "frobenius" (sqrt 30.0) (Matrix.frobenius (m22 1.0 2.0 3.0 4.0))

(* --- qcheck properties --- *)

let gen_matrix rows cols =
  let open QCheck.Gen in
  array_size (return (rows * cols)) (float_bound_inclusive 10.0) >|= fun data ->
  Matrix.init rows cols (fun i j -> data.((i * cols) + j) -. 5.0)

let arb_m33 = QCheck.make (gen_matrix 3 3)
let arb_v3 = QCheck.make QCheck.Gen.(array_size (return 3) (float_bound_inclusive 10.0))

let prop_transpose_involution =
  QCheck.Test.make ~name:"transpose involution" ~count:100 arb_m33 (fun m ->
      Matrix.approx_equal m (Matrix.transpose (Matrix.transpose m)))

let prop_matmul_mv_agree =
  QCheck.Test.make ~name:"matmul against mv column-wise" ~count:50
    (QCheck.pair arb_m33 arb_m33) (fun (a, b) ->
      let c = Matrix.matmul a b in
      let ok = ref true in
      for j = 0 to 2 do
        let cj = Matrix.mv a (Matrix.col b j) in
        if not (Vector.approx_equal ~tol:1e-6 cj (Matrix.col c j)) then ok := false
      done;
      !ok)

let prop_tmv_is_transpose_mv =
  QCheck.Test.make ~name:"tmv equals transpose-then-mv" ~count:100
    (QCheck.pair arb_m33 arb_v3) (fun (m, x) ->
      Vector.approx_equal ~tol:1e-6 (Matrix.tmv m x) (Matrix.mv (Matrix.transpose m) x))

let prop_dot_symmetric =
  QCheck.Test.make ~name:"dot symmetric" ~count:100 (QCheck.pair arb_v3 arb_v3)
    (fun (x, y) -> Float.abs (Vector.dot x y -. Vector.dot y x) < 1e-9)

let prop_matmul_associative =
  QCheck.Test.make ~name:"matmul associative" ~count:30
    (QCheck.triple arb_m33 arb_m33 arb_m33) (fun (a, b, c) ->
      Matrix.approx_equal ~tol:1e-4
        (Matrix.matmul (Matrix.matmul a b) c)
        (Matrix.matmul a (Matrix.matmul b c)))

(* Regression (fuzz-generator audit): [approx_equal] compared by
   [|x - y| > tol], which is false whenever the difference is NaN — so a
   NaN entry passed as equal to anything.  Non-finite entries must
   compare by identity. *)
let test_vec_approx_equal_nan_inf () =
  Alcotest.(check bool) "nan is not a finite value" false
    (Vector.approx_equal [| Float.nan |] [| 0.0 |]);
  Alcotest.(check bool) "finite value is not nan" false
    (Vector.approx_equal [| 0.0 |] [| Float.nan |]);
  Alcotest.(check bool) "nan equals nan" true
    (Vector.approx_equal [| Float.nan |] [| Float.nan |]);
  Alcotest.(check bool) "inf equals inf" true
    (Vector.approx_equal [| Float.infinity |] [| Float.infinity |]);
  Alcotest.(check bool) "inf is not -inf" false
    (Vector.approx_equal [| Float.infinity |] [| Float.neg_infinity |]);
  Alcotest.(check bool) "inf is not finite" false
    (Vector.approx_equal [| Float.infinity |] [| 1e308 |]);
  Alcotest.(check bool) "mixed vector still compares" true
    (Vector.approx_equal [| 1.0; Float.nan; Float.infinity |]
       [| 1.0 +. 1e-12; Float.nan; Float.infinity |])

let test_mat_approx_equal_nan () =
  let a = Matrix.of_rows [| [| Float.nan; 1.0 |] |] in
  let b = Matrix.of_rows [| [| 0.0; 1.0 |] |] in
  Alcotest.(check bool) "matrix nan is not 0" false (Matrix.approx_equal a b);
  Alcotest.(check bool) "matrix nan equals itself" true (Matrix.approx_equal a (Matrix.copy a))

let qtest = QCheck_alcotest.to_alcotest

let suite =
  [ ( "tensor.vector",
      [ Alcotest.test_case "add" `Quick test_vec_add;
        Alcotest.test_case "sub" `Quick test_vec_sub;
        Alcotest.test_case "dot" `Quick test_vec_dot;
        Alcotest.test_case "dim mismatch" `Quick test_vec_dim_mismatch;
        Alcotest.test_case "norms" `Quick test_vec_norms;
        Alcotest.test_case "axpy" `Quick test_vec_axpy;
        Alcotest.test_case "relu" `Quick test_vec_relu;
        Alcotest.test_case "argmax" `Quick test_vec_argmax;
        Alcotest.test_case "clamp" `Quick test_vec_clamp;
        Alcotest.test_case "scale/neg" `Quick test_vec_scale_neg;
        Alcotest.test_case "approx_equal nan/inf" `Quick test_vec_approx_equal_nan_inf;
        qtest prop_dot_symmetric
      ] );
    ( "tensor.matrix",
      [ Alcotest.test_case "identity mv" `Quick test_mat_identity_mv;
        Alcotest.test_case "matmul" `Quick test_mat_matmul;
        Alcotest.test_case "matmul dims" `Quick test_mat_matmul_dims;
        Alcotest.test_case "transpose" `Quick test_mat_transpose;
        Alcotest.test_case "mv/tmv" `Quick test_mat_mv_tmv;
        Alcotest.test_case "row/col" `Quick test_mat_row_col;
        Alcotest.test_case "add/sub/scale" `Quick test_mat_add_sub_scale;
        Alcotest.test_case "ragged rejected" `Quick test_mat_of_rows_ragged;
        Alcotest.test_case "bounds checked" `Quick test_mat_bounds_check;
        Alcotest.test_case "frobenius" `Quick test_mat_frobenius;
        Alcotest.test_case "approx_equal nan" `Quick test_mat_approx_equal_nan;
        qtest prop_transpose_involution;
        qtest prop_matmul_mv_agree;
        qtest prop_tmv_is_transpose_mv;
        qtest prop_matmul_associative
      ] )
  ]
