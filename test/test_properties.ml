(* Cross-cutting property-based tests (qcheck): round-trips, monotonicity
   laws, feasibility of LP solutions, model-based heap checks.  These
   complement the per-module suites with randomised invariants. *)

module Rng = Abonn_util.Rng
module Stats = Abonn_util.Stats
module Heap = Abonn_util.Heap
module Vector = Abonn_tensor.Vector
module Matrix = Abonn_tensor.Matrix
module Network = Abonn_nn.Network
module Builder = Abonn_nn.Builder
module Onnx = Abonn_nn.Onnx
module Affine = Abonn_nn.Affine
module Region = Abonn_spec.Region
module Property = Abonn_spec.Property
module Problem = Abonn_spec.Problem
module Outcome = Abonn_prop.Outcome
module Deeppoly = Abonn_prop.Deeppoly
module Boxlp = Abonn_lp.Boxlp

let qtest = QCheck_alcotest.to_alcotest

(* --- serialization round-trips preserve the function --- *)

let prop_serialize_roundtrip =
  QCheck.Test.make ~name:"serialize round-trip preserves the function" ~count:30
    QCheck.(triple (int_range 0 10_000) (int_range 1 6) (int_range 1 6))
    (fun (seed, h1, h2) ->
      let rng = Rng.create seed in
      let net = Builder.mlp rng ~dims:[ 3; h1; h2; 2 ] in
      let net' = Onnx.of_bytes (Onnx.to_bytes net) in
      let probe = Rng.create (seed + 1) in
      let ok = ref true in
      for _ = 1 to 10 do
        let x = Array.init 3 (fun _ -> Rng.range probe (-2.0) 2.0) in
        if not (Vector.approx_equal ~tol:1e-12 (Network.forward net x) (Network.forward net' x))
        then ok := false
      done;
      !ok)

(* --- affine compilation is semantics-preserving on random shapes --- *)

let prop_affine_compilation_preserves_function =
  QCheck.Test.make ~name:"affine compilation preserves semantics" ~count:30
    QCheck.(triple (int_range 0 10_000) (int_range 1 5) (int_range 1 5))
    (fun (seed, h1, h2) ->
      let rng = Rng.create seed in
      let net = Builder.mlp rng ~dims:[ 2; h1; h2; 3 ] in
      let affine = Affine.of_network net in
      let probe = Rng.create (seed + 7) in
      let ok = ref true in
      for _ = 1 to 10 do
        let x = Array.init 2 (fun _ -> Rng.range probe (-2.0) 2.0) in
        if not (Vector.approx_equal ~tol:1e-9 (Network.forward net x) (Affine.forward affine x))
        then ok := false
      done;
      !ok)

(* --- DeepPoly p̂ is antitone in the radius (min over a superset) --- *)

let prop_deeppoly_antitone_in_eps =
  QCheck.Test.make ~name:"deeppoly phat antitone in eps" ~count:30
    QCheck.(pair (int_range 0 5_000) (float_bound_inclusive 0.2))
    (fun (seed, eps1) ->
      let eps1 = Float.max 1e-4 eps1 in
      let eps2 = eps1 *. 1.7 in
      let rng = Rng.create seed in
      let net = Builder.mlp rng ~dims:[ 3; 6; 2 ] in
      let center = Array.init 3 (fun _ -> Rng.range rng (-0.5) 0.5) in
      let label = Network.predict net center in
      let property = Property.robustness ~num_classes:2 ~label in
      let phat eps =
        let region = Region.linf_ball ~center ~eps () in
        let problem = Problem.create ~network:net ~region ~property () in
        (Deeppoly.run problem []).Outcome.phat
      in
      phat eps2 <= phat eps1 +. 1e-9)

(* --- region laws --- *)

let prop_region_clamp_idempotent_and_inside =
  QCheck.Test.make ~name:"region clamp is idempotent and lands inside" ~count:100
    QCheck.(pair (int_range 0 10_000) (list_of_size (QCheck.Gen.return 3) (float_bound_inclusive 4.0)))
    (fun (seed, xs) ->
      let rng = Rng.create seed in
      let lower = Array.init 3 (fun _ -> Rng.range rng (-1.0) 0.0) in
      let upper = Array.init 3 (fun i -> lower.(i) +. Rng.range rng 0.0 2.0) in
      let region = Region.create ~lower ~upper in
      let x = Array.of_list (List.map (fun v -> v -. 2.0) xs) in
      let c = Region.clamp region x in
      Region.contains region c && Region.clamp region c = c)

(* --- stats laws --- *)

let prop_percentile_monotone =
  QCheck.Test.make ~name:"percentile monotone in p" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 1 20) (float_bound_inclusive 100.0))
    (fun xs ->
      let arr = Array.of_list xs in
      let ps = [ 0.0; 10.0; 25.0; 50.0; 75.0; 90.0; 100.0 ] in
      let vals = List.map (Stats.percentile arr) ps in
      let rec sorted = function
        | a :: (b :: _ as rest) -> a <= b +. 1e-9 && sorted rest
        | [ _ ] | [] -> true
      in
      sorted vals)

let prop_box_plot_ordered =
  QCheck.Test.make ~name:"box plot five numbers are ordered" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 2 30) (float_bound_inclusive 50.0))
    (fun xs ->
      let b = Stats.box_plot (Array.of_list xs) in
      b.Stats.whisker_lo <= b.Stats.q1 +. 1e-9
      && b.Stats.q1 <= b.Stats.med +. 1e-9
      && b.Stats.med <= b.Stats.q3 +. 1e-9
      && b.Stats.q3 <= b.Stats.whisker_hi +. 1e-9)

(* --- heap model check against sorting --- *)

let prop_heap_model =
  QCheck.Test.make ~name:"heap interleaved push/pop matches sorted model" ~count:100
    QCheck.(list (pair bool (float_bound_inclusive 100.0)))
    (fun ops ->
      let h = Heap.create () in
      let model = ref [] in
      let ok = ref true in
      List.iter
        (fun (is_pop, key) ->
          if is_pop then begin
            let expected =
              match List.sort compare !model with
              | [] -> None
              | k :: rest ->
                model := rest;
                Some k
            in
            match Heap.pop h, expected with
            | None, None -> ()
            | Some (k, ()), Some k' -> if Float.abs (k -. k') > 1e-12 then ok := false
            | Some _, None | None, Some _ -> ok := false
          end
          else begin
            Heap.push h key ();
            model := key :: !model
          end)
        ops;
      !ok)

(* --- LP solutions are primal feasible --- *)

let prop_boxlp_solution_feasible =
  QCheck.Test.make ~name:"boxlp optimal solutions are feasible" ~count:150
    (QCheck.int_range 0 100_000) (fun seed ->
      let rng = Rng.create seed in
      let n = 2 + Rng.int rng 4 in
      let m = 1 + Rng.int rng 4 in
      let lo = Array.init n (fun _ -> Rng.range rng (-2.0) 0.0) in
      let hi = Array.init n (fun i -> lo.(i) +. Rng.range rng 0.0 3.0) in
      let c = Array.init n (fun _ -> Rng.range rng (-1.0) 1.0) in
      let rows =
        List.init m (fun _ ->
            let coefs = List.init n (fun j -> (j, Rng.range rng (-1.0) 1.0)) in
            let sense =
              match Rng.int rng 3 with 0 -> Boxlp.Le | 1 -> Boxlp.Ge | _ -> Boxlp.Eq
            in
            { Boxlp.coefs; sense; rhs = Rng.range rng (-1.0) 1.0 })
      in
      let sol = Boxlp.solve ~c ~lo ~hi ~rows () in
      match sol.Boxlp.status with
      | Boxlp.Infeasible | Boxlp.Unbounded | Boxlp.Pivot_limit -> true
      | Boxlp.Optimal ->
        let x = sol.Boxlp.x in
        let tol = 1e-6 in
        let bounds_ok = ref true in
        Array.iteri
          (fun j v -> if v < lo.(j) -. tol || v > hi.(j) +. tol then bounds_ok := false)
          x;
        let rows_ok =
          List.for_all
            (fun (r : Boxlp.row) ->
              let lhs = List.fold_left (fun a (j, v) -> a +. (v *. x.(j))) 0.0 r.Boxlp.coefs in
              match r.Boxlp.sense with
              | Boxlp.Le -> lhs <= r.Boxlp.rhs +. tol
              | Boxlp.Ge -> lhs >= r.Boxlp.rhs -. tol
              | Boxlp.Eq -> Float.abs (lhs -. r.Boxlp.rhs) <= tol)
            rows
        in
        !bounds_ok && rows_ok)

(* --- conv materialisation on random geometry --- *)

let prop_conv_matrix_equivalence =
  QCheck.Test.make ~name:"conv materialisation equals direct forward" ~count:30
    QCheck.(quad (int_range 0 10_000) (int_range 1 2) (int_range 2 3) (int_range 0 1))
    (fun (seed, channels, kernel, padding) ->
      let rng = Rng.create seed in
      let conv =
        Abonn_nn.Conv.create rng ~in_channels:channels ~in_h:5 ~in_w:5 ~out_channels:2
          ~kernel ~stride:1 ~padding
      in
      let w, b = Abonn_nn.Conv.to_matrix conv in
      let probe = Rng.create (seed + 3) in
      let x =
        Array.init (Abonn_nn.Conv.input_dim conv) (fun _ -> Rng.range probe (-1.0) 1.0)
      in
      Vector.approx_equal ~tol:1e-9
        (Abonn_nn.Conv.forward conv x)
        (Vector.add (Matrix.mv w x) b))

let suite =
  [ ( "properties",
      [ qtest prop_serialize_roundtrip;
        qtest prop_affine_compilation_preserves_function;
        qtest prop_deeppoly_antitone_in_eps;
        qtest prop_region_clamp_idempotent_and_inside;
        qtest prop_percentile_monotone;
        qtest prop_box_plot_ordered;
        qtest prop_heap_model;
        qtest prop_boxlp_solution_feasible;
        qtest prop_conv_matrix_equivalence
      ] )
  ]
