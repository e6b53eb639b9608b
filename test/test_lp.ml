(* Tests for Abonn_lp: textbook simplex instances (optimal / infeasible /
   unbounded / degenerate), the general-form modelling layer, the LP
   relaxation verifier cross-checked against DeepPoly and sampling, and
   the bounded-variable simplex against vertex enumeration. *)

module Matrix = Abonn_tensor.Matrix
module Rng = Abonn_util.Rng
module Region = Abonn_spec.Region
module Property = Abonn_spec.Property
module Split = Abonn_spec.Split
module Problem = Abonn_spec.Problem
module Network = Abonn_nn.Network
module Affine = Abonn_nn.Affine
module Builder = Abonn_nn.Builder
module Outcome = Abonn_prop.Outcome
module Deeppoly = Abonn_prop.Deeppoly
module Lp = Abonn_lp.Lp_problem
module Lp_verifier = Abonn_lp.Lp_verifier

let check_float tol = Alcotest.(check (float tol))

(* --- Textbook simplex instances, in standard form --- *)

(* [min c·x] subject to [A x = b], [x ≥ 0], built with the modelling
   layer (the solver sees [0, +∞) boxes). *)
let standard_form ~c ~a ~b =
  let lp = Lp.create () in
  let x = Array.map (fun _ -> Lp.add_var ~lo:0.0 lp) c in
  let terms coefs = Array.to_list (Array.mapi (fun j v -> (v, x.(j))) coefs) in
  Array.iteri (fun i row -> Lp.add_constraint lp (terms row) Lp.Eq b.(i)) a;
  Lp.set_objective lp (terms c);
  (lp, x)

let optimum = function
  | Lp.Optimal { objective; values } -> (objective, values)
  | Lp.Infeasible | Lp.Unbounded | Lp.Pivot_limit -> Alcotest.fail "expected optimum"

let test_simplex_basic () =
  (* min -x1 - 2 x2  s.t.  x1 + x2 + s1 = 4;  x1 + 3 x2 + s2 = 6; all >= 0.
     Optimum at x1 = 3, x2 = 1: objective -5. *)
  let lp, x =
    standard_form ~c:[| -1.0; -2.0; 0.0; 0.0 |]
      ~a:[| [| 1.0; 1.0; 1.0; 0.0 |]; [| 1.0; 3.0; 0.0; 1.0 |] |] ~b:[| 4.0; 6.0 |]
  in
  let objective, values = optimum (Lp.solve lp) in
  check_float 1e-9 "objective" (-5.0) objective;
  check_float 1e-9 "x1" 3.0 (values x.(0));
  check_float 1e-9 "x2" 1.0 (values x.(1))

let test_simplex_infeasible () =
  (* x1 = 1 and x1 = 2 simultaneously. *)
  let lp, _ = standard_form ~c:[| 0.0 |] ~a:[| [| 1.0 |]; [| 1.0 |] |] ~b:[| 1.0; 2.0 |] in
  Alcotest.(check bool) "infeasible" true (Lp.solve lp = Lp.Infeasible)

let test_simplex_unbounded () =
  (* min -x1  s.t.  x1 - x2 = 0: both can grow without bound. *)
  let lp, _ = standard_form ~c:[| -1.0; 0.0 |] ~a:[| [| 1.0; -1.0 |] |] ~b:[| 0.0 |] in
  Alcotest.(check bool) "unbounded" true (Lp.solve lp = Lp.Unbounded)

let test_simplex_negative_rhs () =
  (* -x1 - x2 = -3  ⇔  x1 + x2 = 3.  Maximising x1 drives it to 3. *)
  let lp, x = standard_form ~c:[| -1.0; 0.0 |] ~a:[| [| -1.0; -1.0 |] |] ~b:[| -3.0 |] in
  let objective, values = optimum (Lp.solve lp) in
  check_float 1e-9 "x1 = 3" 3.0 (values x.(0));
  check_float 1e-9 "objective" (-3.0) objective

let test_simplex_redundant_rows () =
  (* Duplicate constraint leaves a zero-valued artificial in the basis. *)
  let lp, _ =
    standard_form ~c:[| 1.0; 1.0 |] ~a:[| [| 1.0; 1.0 |]; [| 1.0; 1.0 |] |] ~b:[| 2.0; 2.0 |]
  in
  check_float 1e-9 "objective" 2.0 (fst (optimum (Lp.solve lp)))

let test_simplex_degenerate_terminates () =
  (* Beale's degenerate instance: Bland's rule must terminate, and a
     starved pivot budget must surface as [Pivot_limit], never an
     exception. *)
  let lp, _ =
    standard_form ~c:[| -10.0; 57.0; 9.0; 24.0; 0.0; 0.0; 0.0 |]
      ~a:
        [| [| 0.5; -5.5; -2.5; 9.0; 1.0; 0.0; 0.0 |];
           [| 0.5; -1.5; -0.5; 1.0; 0.0; 1.0; 0.0 |];
           [| 1.0; 0.0; 0.0; 0.0; 0.0; 0.0; 1.0 |]
        |]
      ~b:[| 0.0; 0.0; 1.0 |]
  in
  check_float 1e-6 "objective" (-1.0) (fst (optimum (Lp.solve lp)));
  Alcotest.(check bool) "pivot limit" true (Lp.solve ~max_iters:1 lp = Lp.Pivot_limit)

(* --- Lp_problem modelling layer --- *)

let test_lp_bounded_box () =
  (* min x + y over [1,2] × [3,4]: optimum 4 at the lower corner. *)
  let lp = Lp.create () in
  let x = Lp.add_var ~lo:1.0 ~hi:2.0 lp in
  let y = Lp.add_var ~lo:3.0 ~hi:4.0 lp in
  Lp.set_objective lp [ (1.0, x); (1.0, y) ];
  (match Lp.solve lp with
   | Lp.Optimal { objective; values } ->
     check_float 1e-9 "objective" 4.0 objective;
     check_float 1e-9 "x" 1.0 (values x);
     check_float 1e-9 "y" 3.0 (values y)
   | Lp.Infeasible | Lp.Unbounded | Lp.Pivot_limit -> Alcotest.fail "expected optimum")

let test_lp_maximize_via_negation () =
  (* max x + y over x + y <= 5, x,y in [0,10]: minimise the negation. *)
  let lp = Lp.create () in
  let x = Lp.add_var ~lo:0.0 ~hi:10.0 lp in
  let y = Lp.add_var ~lo:0.0 ~hi:10.0 lp in
  Lp.add_constraint lp [ (1.0, x); (1.0, y) ] Lp.Le 5.0;
  Lp.set_objective lp [ (-1.0, x); (-1.0, y) ];
  (match Lp.solve lp with
   | Lp.Optimal { objective; _ } -> check_float 1e-9 "max is 5" (-5.0) objective
   | Lp.Infeasible | Lp.Unbounded | Lp.Pivot_limit -> Alcotest.fail "expected optimum")

let test_lp_free_variable () =
  (* add_var rejects a variable with no finite bound *)
  let lp = Lp.create () in
  Alcotest.(check bool) "raises" true
    (try ignore (Lp.add_var lp); false with Invalid_argument _ -> true);
  Alcotest.(check bool) "nan bound raises" true
    (try ignore (Lp.add_var ~lo:nan ~hi:1.0 lp); false with Invalid_argument _ -> true)

let test_lp_upper_bounded_only () =
  (* x ≤ 2 (no lower bound), minimise -x: optimum at 2. *)
  let lp = Lp.create () in
  let x = Lp.add_var ~hi:2.0 lp in
  Lp.set_objective lp [ (-1.0, x) ];
  (match Lp.solve lp with
   | Lp.Optimal { values; _ } -> check_float 1e-9 "x" 2.0 (values x)
   | Lp.Infeasible | Lp.Unbounded | Lp.Pivot_limit -> Alcotest.fail "expected optimum")

let test_lp_ge_constraint () =
  let lp = Lp.create () in
  let x = Lp.add_var ~lo:0.0 lp in
  Lp.add_constraint lp [ (1.0, x) ] Lp.Ge 4.0;
  Lp.set_objective lp [ (1.0, x) ];
  (match Lp.solve lp with
   | Lp.Optimal { objective; _ } -> check_float 1e-9 "objective" 4.0 objective
   | Lp.Infeasible | Lp.Unbounded | Lp.Pivot_limit -> Alcotest.fail "expected optimum")

let test_lp_infeasible () =
  let lp = Lp.create () in
  let x = Lp.add_var ~lo:0.0 ~hi:1.0 lp in
  Lp.add_constraint lp [ (1.0, x) ] Lp.Ge 2.0;
  Alcotest.(check bool) "infeasible" true (Lp.solve lp = Lp.Infeasible)

let test_lp_unbounded () =
  let lp = Lp.create () in
  let x = Lp.add_var ~lo:0.0 lp in
  Lp.set_objective lp [ (-1.0, x) ];
  Alcotest.(check bool) "unbounded" true (Lp.solve lp = Lp.Unbounded)

let test_lp_objective_constant () =
  let lp = Lp.create () in
  let x = Lp.add_var ~lo:1.0 ~hi:1.0 lp in
  Lp.set_objective ~constant:10.0 lp [ (2.0, x) ];
  (match Lp.solve lp with
   | Lp.Optimal { objective; _ } -> check_float 1e-9 "objective" 12.0 objective
   | Lp.Infeasible | Lp.Unbounded | Lp.Pivot_limit -> Alcotest.fail "expected optimum")

let test_lp_resolve_with_new_objective () =
  (* The builder is reusable: solve twice with different objectives. *)
  let lp = Lp.create () in
  let x = Lp.add_var ~lo:0.0 ~hi:1.0 lp in
  Lp.set_objective lp [ (1.0, x) ];
  let first = match Lp.solve lp with Lp.Optimal { objective; _ } -> objective | _ -> nan in
  Lp.set_objective lp [ (-1.0, x) ];
  let second = match Lp.solve lp with Lp.Optimal { objective; _ } -> objective | _ -> nan in
  check_float 1e-9 "min" 0.0 first;
  check_float 1e-9 "max(-)" (-1.0) second

let test_lp_rejects_bad_bounds () =
  let lp = Lp.create () in
  Alcotest.(check bool) "raises" true
    (try ignore (Lp.add_var ~lo:2.0 ~hi:1.0 lp); false with Invalid_argument _ -> true)

let test_lp_duplicate_terms_summed () =
  (* x + x <= 4  ⇔  x <= 2. *)
  let lp = Lp.create () in
  let x = Lp.add_var ~lo:0.0 lp in
  Lp.add_constraint lp [ (1.0, x); (1.0, x) ] Lp.Le 4.0;
  Lp.set_objective lp [ (-1.0, x) ];
  (match Lp.solve lp with
   | Lp.Optimal { values; _ } -> check_float 1e-9 "x" 2.0 (values x)
   | Lp.Infeasible | Lp.Unbounded | Lp.Pivot_limit -> Alcotest.fail "expected optimum")

(* --- LP verifier --- *)

let random_problem ?(seed = 0) ?(dims = [ 2; 5; 2 ]) ?(eps = 0.3) () =
  let rng = Rng.create seed in
  let net = Builder.mlp rng ~dims in
  let in_dim = List.hd dims in
  let center = Array.init in_dim (fun _ -> Rng.range rng (-0.5) 0.5) in
  let region = Region.linf_ball ~center ~eps () in
  let out_dim = List.nth dims (List.length dims - 1) in
  let label = Network.predict net center in
  let property = Property.robustness ~num_classes:out_dim ~label in
  Problem.create ~network:net ~region ~property ()

let test_lp_verifier_exact_on_linear () =
  let w = Matrix.of_rows [| [| 1.0; -2.0 |] |] in
  let affine = Affine.of_weights [ (w, [| 0.25 |]) ] in
  let region = Region.create ~lower:[| -1.0; -1.0 |] ~upper:[| 1.0; 1.0 |] in
  let property = Property.single [| 1.0 |] 0.0 in
  let problem = Problem.of_affine ~affine ~region ~property () in
  let outcome = Lp_verifier.run problem [] in
  check_float 1e-8 "phat" (-2.75) outcome.Outcome.phat;
  match outcome.Outcome.candidate with
  | None -> Alcotest.fail "expected candidate"
  | Some x ->
    Alcotest.(check bool) "candidate is real counterexample" true
      (Problem.is_counterexample problem x)

let test_lp_verifier_at_least_as_tight_as_deeppoly () =
  (* LP over the full triangle relaxation dominates any per-neuron choice
     of a single lower line, so phat_LP >= phat_DeepPoly. *)
  for seed = 0 to 7 do
    let problem = random_problem ~seed () in
    let lp = Lp_verifier.run problem [] in
    let dp = Deeppoly.run problem [] in
    Alcotest.(check bool)
      (Printf.sprintf "lp >= deeppoly (seed %d)" seed)
      true
      (lp.Outcome.phat >= dp.Outcome.phat -. 1e-7)
  done

let test_lp_verifier_phat_sound () =
  for seed = 20 to 23 do
    let problem = random_problem ~seed () in
    let outcome = Lp_verifier.run problem [] in
    let rng = Rng.create (seed * 31) in
    let ok = ref true in
    for _ = 1 to 200 do
      let x = Region.sample rng problem.Problem.region in
      if Problem.concrete_margin problem x < outcome.Outcome.phat -. 1e-7 then ok := false
    done;
    Alcotest.(check bool) (Printf.sprintf "lp phat sound (seed %d)" seed) true !ok
  done

let test_lp_verifier_candidate_in_region () =
  for seed = 30 to 33 do
    let problem = random_problem ~seed ~eps:0.6 () in
    let outcome = Lp_verifier.run problem [] in
    match outcome.Outcome.candidate with
    | None -> ()
    | Some x ->
      Alcotest.(check bool)
        (Printf.sprintf "candidate in region (seed %d)" seed)
        true
        (Region.contains problem.Problem.region x)
  done

let test_lp_verifier_infeasible_split_vacuous () =
  let problem = random_problem ~seed:50 ~dims:[ 3; 6; 6; 2 ] ~eps:0.01 () in
  let outcome = Deeppoly.run problem [] in
  let affine = problem.Problem.affine in
  let found = ref None in
  Array.iteri
    (fun l (b : Abonn_prop.Bounds.t) ->
      Array.iteri
        (fun i _ ->
          if !found = None && b.Abonn_prop.Bounds.lower.(i) > 0.01 then
            found := Some (Affine.relu_index affine ~layer:l ~idx:i))
        b.Abonn_prop.Bounds.lower)
    outcome.Outcome.pre_bounds;
  match !found with
  | None -> Alcotest.fail "no stable-active neuron"
  | Some relu ->
    let child = Lp_verifier.run problem (Split.extend [] ~relu ~phase:Split.Inactive) in
    Alcotest.(check bool) "vacuous" true child.Outcome.infeasible

let test_lp_verifier_splits_tighten () =
  (* The LP is monotone in the constraint set: each child's bound
     dominates the parent's (unlike single-line relaxations, the triangle
     LP only gains constraints when an interval shrinks). *)
  let problem = random_problem ~seed:60 ~eps:0.4 () in
  let parent = Lp_verifier.run problem [] in
  match Abonn_prop.Bounds.unstable_indices parent.Outcome.pre_bounds.(0) with
  | [] -> Alcotest.fail "expected unstable neuron"
  | idx :: _ ->
    let relu = Affine.relu_index problem.Problem.affine ~layer:0 ~idx in
    List.iter
      (fun phase ->
        let child = Lp_verifier.run problem (Split.extend [] ~relu ~phase) in
        Alcotest.(check bool) "child >= parent" true
          (child.Outcome.phat >= parent.Outcome.phat -. 1e-7))
      [ Split.Active; Split.Inactive ]

let prop_lp_matches_brute_force_2d =
  (* On 2-input networks the margin minimum over the box is approximated
     well by dense grid search; the LP bound must stay below it. *)
  QCheck.Test.make ~name:"lp phat below grid minimum" ~count:10
    (QCheck.int_range 0 500) (fun seed ->
      let problem = random_problem ~seed ~dims:[ 2; 4; 2 ] ~eps:0.3 () in
      let outcome = Lp_verifier.run problem [] in
      let region = problem.Problem.region in
      let n = 15 in
      let ok = ref true in
      for i = 0 to n do
        for j = 0 to n do
          let x =
            [| region.Region.lower.(0)
               +. (float_of_int i /. float_of_int n
                   *. (region.Region.upper.(0) -. region.Region.lower.(0)));
               region.Region.lower.(1)
               +. (float_of_int j /. float_of_int n
                   *. (region.Region.upper.(1) -. region.Region.lower.(1)))
            |]
          in
          if Problem.concrete_margin problem x < outcome.Outcome.phat -. 1e-7 then ok := false
        done
      done;
      !ok)

let qtest = QCheck_alcotest.to_alcotest

let suite =
  [ ( "lp.simplex",
      [ Alcotest.test_case "basic optimum" `Quick test_simplex_basic;
        Alcotest.test_case "infeasible" `Quick test_simplex_infeasible;
        Alcotest.test_case "unbounded" `Quick test_simplex_unbounded;
        Alcotest.test_case "negative rhs" `Quick test_simplex_negative_rhs;
        Alcotest.test_case "redundant rows" `Quick test_simplex_redundant_rows;
        Alcotest.test_case "degenerate terminates" `Quick test_simplex_degenerate_terminates
      ] );
    ( "lp.problem",
      [ Alcotest.test_case "bounded box" `Quick test_lp_bounded_box;
        Alcotest.test_case "maximize via negation" `Quick test_lp_maximize_via_negation;
        Alcotest.test_case "free variable" `Quick test_lp_free_variable;
        Alcotest.test_case "upper bounded only" `Quick test_lp_upper_bounded_only;
        Alcotest.test_case "ge constraint" `Quick test_lp_ge_constraint;
        Alcotest.test_case "infeasible" `Quick test_lp_infeasible;
        Alcotest.test_case "unbounded" `Quick test_lp_unbounded;
        Alcotest.test_case "objective constant" `Quick test_lp_objective_constant;
        Alcotest.test_case "resolve" `Quick test_lp_resolve_with_new_objective;
        Alcotest.test_case "rejects bad bounds" `Quick test_lp_rejects_bad_bounds;
        Alcotest.test_case "duplicate terms" `Quick test_lp_duplicate_terms_summed
      ] );
    ( "lp.verifier",
      [ Alcotest.test_case "exact on linear" `Quick test_lp_verifier_exact_on_linear;
        Alcotest.test_case "tighter than deeppoly" `Quick test_lp_verifier_at_least_as_tight_as_deeppoly;
        Alcotest.test_case "phat sound" `Quick test_lp_verifier_phat_sound;
        Alcotest.test_case "candidate in region" `Quick test_lp_verifier_candidate_in_region;
        Alcotest.test_case "infeasible split vacuous" `Quick test_lp_verifier_infeasible_split_vacuous;
        Alcotest.test_case "splits tighten" `Quick test_lp_verifier_splits_tighten;
        qtest prop_lp_matches_brute_force_2d
      ] )
  ]

(* --- Boxlp: bounded-variable simplex --- *)

module Boxlp = Abonn_lp.Boxlp

let test_boxlp_box_minimum () =
  (* no rows: optimum at the cost-wise best corner *)
  let sol =
    Boxlp.solve ~c:[| 1.0; -1.0 |] ~lo:[| -1.0; -2.0 |] ~hi:[| 3.0; 4.0 |] ~rows:[] ()
  in
  Alcotest.(check bool) "optimal" true (sol.Boxlp.status = Boxlp.Optimal);
  check_float 1e-9 "objective" (-5.0) sol.Boxlp.objective;
  check_float 1e-9 "x0" (-1.0) sol.Boxlp.x.(0);
  check_float 1e-9 "x1" 4.0 sol.Boxlp.x.(1)

let test_boxlp_with_constraint () =
  (* min -x0-x1 over [0,2]^2 with x0+x1 <= 3 *)
  let rows = [ { Boxlp.coefs = [ (0, 1.0); (1, 1.0) ]; sense = Boxlp.Le; rhs = 3.0 } ] in
  let sol = Boxlp.solve ~c:[| -1.0; -1.0 |] ~lo:[| 0.0; 0.0 |] ~hi:[| 2.0; 2.0 |] ~rows () in
  Alcotest.(check bool) "optimal" true (sol.Boxlp.status = Boxlp.Optimal);
  check_float 1e-9 "objective" (-3.0) sol.Boxlp.objective

let test_boxlp_infeasible () =
  let rows = [ { Boxlp.coefs = [ (0, 1.0) ]; sense = Boxlp.Ge; rhs = 5.0 } ] in
  let sol = Boxlp.solve ~c:[| 0.0 |] ~lo:[| 0.0 |] ~hi:[| 1.0 |] ~rows () in
  Alcotest.(check bool) "infeasible" true (sol.Boxlp.status = Boxlp.Infeasible)

let test_boxlp_unbounded () =
  (* x1 has an infinite upper bound and negative cost, no rows limit it *)
  let sol = Boxlp.solve ~c:[| -1.0 |] ~lo:[| 0.0 |] ~hi:[| infinity |] ~rows:[] () in
  Alcotest.(check bool) "unbounded" true (sol.Boxlp.status = Boxlp.Unbounded)

let test_boxlp_equality_rows () =
  (* x0 + x1 = 1 over [0,1]^2, min x0 -> (0,1) *)
  let rows = [ { Boxlp.coefs = [ (0, 1.0); (1, 1.0) ]; sense = Boxlp.Eq; rhs = 1.0 } ] in
  let sol = Boxlp.solve ~c:[| 1.0; 0.0 |] ~lo:[| 0.0; 0.0 |] ~hi:[| 1.0; 1.0 |] ~rows () in
  Alcotest.(check bool) "optimal" true (sol.Boxlp.status = Boxlp.Optimal);
  check_float 1e-9 "x0" 0.0 sol.Boxlp.x.(0);
  check_float 1e-9 "x1" 1.0 sol.Boxlp.x.(1)

let test_boxlp_rejects_free_variable () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Boxlp.solve ~c:[| 1.0 |] ~lo:[| neg_infinity |] ~hi:[| infinity |] ~rows:[] ());
       false
     with Invalid_argument _ -> true)

let test_boxlp_pinned_variable () =
  (* lo = hi pins a variable; constraints must still be honoured *)
  let rows = [ { Boxlp.coefs = [ (0, 1.0); (1, 1.0) ]; sense = Boxlp.Le; rhs = 1.0 } ] in
  let sol =
    Boxlp.solve ~c:[| 0.0; -1.0 |] ~lo:[| 0.5; 0.0 |] ~hi:[| 0.5; 9.0 |] ~rows ()
  in
  Alcotest.(check bool) "optimal" true (sol.Boxlp.status = Boxlp.Optimal);
  check_float 1e-9 "x1 limited" 0.5 sol.Boxlp.x.(1)

(* Brute-force reference for boxed LPs.  The feasible set is a bounded
   polytope, so a minimum, when there is one, sits at a vertex, and every
   vertex solves n linearly independent active constraints (rows at
   equality or box faces).  Enumerate every n-subset of those
   hyperplanes, solve the n×n system and keep the best feasible point.
   [None] means infeasible. *)
let solve_square planes =
  let m = Array.of_list (List.map (fun (a, b) -> Array.append a [| b |]) planes) in
  let n = Array.length m in
  try
    for col = 0 to n - 1 do
      let piv = ref col in
      for i = col + 1 to n - 1 do
        if Float.abs m.(i).(col) > Float.abs m.(!piv).(col) then piv := i
      done;
      if Float.abs m.(!piv).(col) < 1e-9 then raise Exit;
      let t = m.(col) in
      m.(col) <- m.(!piv);
      m.(!piv) <- t;
      for i = 0 to n - 1 do
        let f = m.(i).(col) /. m.(col).(col) in
        if i <> col && f <> 0.0 then
          for j = col to n do
            m.(i).(j) <- m.(i).(j) -. (f *. m.(col).(j))
          done
      done
    done;
    Some (Array.init n (fun i -> m.(i).(n) /. m.(i).(i)))
  with Exit -> None

let vertex_minimum ~c ~lo ~hi ~(rows : Boxlp.row list) =
  let n = Array.length c in
  let dot a x = Array.fold_left ( +. ) 0.0 (Array.map2 ( *. ) a x) in
  let rows =
    List.map
      (fun (r : Boxlp.row) ->
        let a = Array.make n 0.0 in
        List.iter (fun (j, v) -> a.(j) <- a.(j) +. v) r.Boxlp.coefs;
        (a, r.Boxlp.sense, r.Boxlp.rhs))
      rows
  in
  let unit j = Array.init n (fun k -> if k = j then 1.0 else 0.0) in
  let planes =
    List.map (fun (a, _, rhs) -> (a, rhs)) rows
    @ List.concat (List.init n (fun j -> [ (unit j, lo.(j)); (unit j, hi.(j)) ]))
  in
  let tol = 1e-7 in
  let feasible x =
    Array.for_all Fun.id (Array.mapi (fun j v -> v >= lo.(j) -. tol && v <= hi.(j) +. tol) x)
    && List.for_all
         (fun (a, sense, rhs) ->
           let v = dot a x in
           match sense with
           | Boxlp.Le -> v <= rhs +. tol
           | Boxlp.Ge -> v >= rhs -. tol
           | Boxlp.Eq -> Float.abs (v -. rhs) <= tol)
         rows
  in
  let best = ref None in
  let rec choose k chosen planes =
    if k = 0 then
      match solve_square chosen with
      | Some x when feasible x ->
        let v = dot c x in
        (match !best with Some b when b <= v -> () | _ -> best := Some v)
      | Some _ | None -> ()
    else
      match planes with
      | [] -> ()
      | p :: rest ->
        choose (k - 1) (p :: chosen) rest;
        choose k chosen rest
  in
  choose n [] planes;
  !best

let prop_boxlp_matches_vertices =
  QCheck.Test.make ~name:"boxlp matches vertex enumeration" ~count:200
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
      let fast = Boxlp.solve ~c ~lo ~hi ~rows () in
      match vertex_minimum ~c ~lo ~hi ~rows, fast.Boxlp.status with
      | Some v, Boxlp.Optimal -> Float.abs (v -. fast.Boxlp.objective) < 1e-5
      | None, Boxlp.Infeasible -> true
      | (Some _ | None), _ -> false)

let boxlp_tests =
  ( "lp.boxlp",
    [ Alcotest.test_case "box minimum" `Quick test_boxlp_box_minimum;
      Alcotest.test_case "with constraint" `Quick test_boxlp_with_constraint;
      Alcotest.test_case "infeasible" `Quick test_boxlp_infeasible;
      Alcotest.test_case "unbounded" `Quick test_boxlp_unbounded;
      Alcotest.test_case "equality rows" `Quick test_boxlp_equality_rows;
      Alcotest.test_case "rejects free var" `Quick test_boxlp_rejects_free_variable;
      Alcotest.test_case "pinned variable" `Quick test_boxlp_pinned_variable;
      qtest prop_boxlp_matches_vertices
    ] )

let suite = suite @ [ boxlp_tests ]
