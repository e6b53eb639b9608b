(* Tests for Abonn_prop: soundness of interval and DeepPoly bounds
   (sampled inputs always fall inside certified intervals; the certified
   margin lower-bounds every concrete margin), relative tightness
   (DeepPoly >= IBP), split-constraint folding and infeasibility, and
   exactness on purely linear networks. *)

module Matrix = Abonn_tensor.Matrix
module Vector = Abonn_tensor.Vector
module Rng = Abonn_util.Rng
module Region = Abonn_spec.Region
module Property = Abonn_spec.Property
module Split = Abonn_spec.Split
module Problem = Abonn_spec.Problem
module Layer = Abonn_nn.Layer
module Network = Abonn_nn.Network
module Affine = Abonn_nn.Affine
module Builder = Abonn_nn.Builder
module Bounds = Abonn_prop.Bounds
module Outcome = Abonn_prop.Outcome
module Interval = Abonn_prop.Interval
module Deeppoly = Abonn_prop.Deeppoly
module Appver = Abonn_prop.Appver

let check_float = Alcotest.(check (float 1e-9))

let random_problem ?(seed = 0) ?(dims = [ 3; 6; 6; 2 ]) ?(eps = 0.3) () =
  let rng = Rng.create seed in
  let net = Builder.mlp rng ~dims in
  let in_dim = List.hd dims in
  let center = Array.init in_dim (fun _ -> Rng.range rng (-0.5) 0.5) in
  let region = Region.linf_ball ~center ~eps () in
  let out_dim = List.nth dims (List.length dims - 1) in
  let label = Network.predict net center in
  let property = Property.robustness ~num_classes:out_dim ~label in
  Problem.create ~network:net ~region ~property ()

(* --- Bounds --- *)

let test_bounds_infeasible_detection () =
  let b = Bounds.create ~lower:[| 0.0; 1.0 |] ~upper:[| 1.0; 0.5 |] in
  Alcotest.(check bool) "infeasible" true (Bounds.is_infeasible b);
  let ok = Bounds.create ~lower:[| 0.0 |] ~upper:[| 0.0 |] in
  Alcotest.(check bool) "degenerate ok" false (Bounds.is_infeasible ok)

let test_bounds_apply_split () =
  let b = Bounds.create ~lower:[| -1.0 |] ~upper:[| 1.0 |] in
  let act = Bounds.apply_split b ~idx:0 ~phase:Split.Active in
  check_float "active clamps lower" 0.0 act.Bounds.lower.(0);
  let inact = Bounds.apply_split b ~idx:0 ~phase:Split.Inactive in
  check_float "inactive clamps upper" 0.0 inact.Bounds.upper.(0);
  Alcotest.(check bool) "original untouched" true (b.Bounds.lower.(0) = -1.0)

let test_bounds_split_can_be_infeasible () =
  let b = Bounds.create ~lower:[| 0.5 |] ~upper:[| 1.0 |] in
  let inact = Bounds.apply_split b ~idx:0 ~phase:Split.Inactive in
  Alcotest.(check bool) "contradiction detected" true (Bounds.is_infeasible inact)

let test_bounds_relu_states () =
  let b = Bounds.create ~lower:[| 0.0; -1.0; -2.0 |] ~upper:[| 1.0; 2.0; -0.5 |] in
  Alcotest.(check bool) "active" true (Bounds.relu_state_of b 0 = Bounds.Stable_active);
  Alcotest.(check bool) "unstable" true (Bounds.relu_state_of b 1 = Bounds.Unstable);
  Alcotest.(check bool) "inactive" true (Bounds.relu_state_of b 2 = Bounds.Stable_inactive);
  Alcotest.(check (list int)) "unstable list" [ 1 ] (Bounds.unstable_indices b);
  Alcotest.(check int) "count" 1 (Bounds.num_unstable b)

(* --- soundness of hidden bounds: sampled pre-activations inside --- *)

let bounds_contain_samples hidden_bounds problem samples_seed =
  let rng = Rng.create samples_seed in
  let ok = ref true in
  for _ = 1 to 200 do
    let x = Region.sample rng problem.Problem.region in
    let pre = Affine.pre_activations problem.Problem.affine x in
    Array.iteri
      (fun l (b : Bounds.t) ->
        Array.iteri
          (fun i lo ->
            let v = pre.(l).(i) in
            if v < lo -. 1e-6 || v > b.Bounds.upper.(i) +. 1e-6 then ok := false)
          b.Bounds.lower)
      hidden_bounds
  done;
  !ok

let test_interval_bounds_sound () =
  let problem = random_problem ~seed:1 () in
  match Interval.hidden_bounds problem [] with
  | None -> Alcotest.fail "unexpected infeasibility"
  | Some b ->
    Alcotest.(check bool) "IBP bounds contain samples" true
      (bounds_contain_samples b problem 101)

let test_deeppoly_bounds_sound () =
  let problem = random_problem ~seed:2 () in
  match Deeppoly.hidden_bounds problem [] with
  | None -> Alcotest.fail "unexpected infeasibility"
  | Some b ->
    Alcotest.(check bool) "DeepPoly bounds contain samples" true
      (bounds_contain_samples b problem 102)

let test_deeppoly_sound_under_splits () =
  (* Under split Γ the bounds must contain the pre-activations of every
     sampled input that satisfies Γ. *)
  let problem = random_problem ~seed:3 () in
  let affine = problem.Problem.affine in
  let base = Deeppoly.run problem [] in
  match Bounds.unstable_indices base.Outcome.pre_bounds.(0) with
  | [] -> Alcotest.fail "expected at least one unstable relu"
  | idx :: _ ->
    let relu = Affine.relu_index affine ~layer:0 ~idx in
    List.iter
      (fun phase ->
        let gamma = Split.extend [] ~relu ~phase in
        match Deeppoly.hidden_bounds problem gamma with
        | None -> Alcotest.fail "split of unstable relu cannot be infeasible"
        | Some hb ->
          let rng = Rng.create 55 in
          let ok = ref true in
          let checked = ref 0 in
          for _ = 1 to 500 do
            let x = Region.sample rng problem.Problem.region in
            if Split.satisfied_by affine gamma x then begin
              incr checked;
              let pre = Affine.pre_activations affine x in
              Array.iteri
                (fun l (b : Bounds.t) ->
                  Array.iteri
                    (fun i lo ->
                      let v = pre.(l).(i) in
                      if v < lo -. 1e-6 || v > b.Bounds.upper.(i) +. 1e-6 then ok := false)
                    b.Bounds.lower)
                hb
            end
          done;
          Alcotest.(check bool) "some samples satisfied the split" true (!checked > 0);
          Alcotest.(check bool) "split bounds sound" true !ok)
      [ Split.Active; Split.Inactive ]

(* --- phat lower-bounds the concrete margin --- *)

let phat_below_sampled_margins run problem =
  let outcome = run problem [] in
  let rng = Rng.create 77 in
  let ok = ref true in
  for _ = 1 to 300 do
    let x = Region.sample rng problem.Problem.region in
    if Problem.concrete_margin problem x < outcome.Outcome.phat -. 1e-6 then ok := false
  done;
  !ok

let test_interval_phat_sound () =
  let problem = random_problem ~seed:4 () in
  Alcotest.(check bool) "IBP phat sound" true (phat_below_sampled_margins Interval.run problem)

let test_deeppoly_phat_sound () =
  let problem = random_problem ~seed:5 () in
  Alcotest.(check bool) "DeepPoly phat sound" true
    (phat_below_sampled_margins (fun p g -> Deeppoly.run p g) problem)

let test_deeppoly_tighter_than_interval () =
  (* On every seed DeepPoly's certified bound must be >= IBP's. *)
  for seed = 10 to 19 do
    let problem = random_problem ~seed () in
    let dp = Deeppoly.run problem [] in
    let ibp = Interval.run problem [] in
    Alcotest.(check bool)
      (Printf.sprintf "deeppoly >= interval (seed %d)" seed)
      true
      (dp.Outcome.phat >= ibp.Outcome.phat -. 1e-9)
  done

let test_deeppoly_proves_easy_property () =
  (* Tiny epsilon around a confidently classified point should verify. *)
  let rng = Rng.create 42 in
  let net = Builder.mlp rng ~dims:[ 2; 8; 2 ] in
  let center = [| 0.3; -0.4 |] in
  let label = Network.predict net center in
  let region = Region.linf_ball ~center ~eps:1e-5 () in
  let property = Property.robustness ~num_classes:2 ~label in
  let problem = Problem.create ~network:net ~region ~property () in
  let outcome = Deeppoly.run problem [] in
  Alcotest.(check bool) "proved" true (Outcome.proved outcome);
  Alcotest.(check bool) "no candidate" true (outcome.Outcome.candidate = None)

let test_deeppoly_exact_on_linear_net () =
  (* Depth-1 network (no hidden ReLU): DeepPoly is exact, so the returned
     candidate achieves exactly phat. *)
  let w = Matrix.of_rows [| [| 1.0; -2.0 |] |] in
  let affine = Affine.of_weights [ (w, [| 0.25 |]) ] in
  let region = Region.create ~lower:[| -1.0; -1.0 |] ~upper:[| 1.0; 1.0 |] in
  let property = Property.single [| 1.0 |] 0.0 in
  let problem = Problem.of_affine ~affine ~region ~property () in
  let outcome = Deeppoly.run problem [] in
  check_float "phat = min margin = 0.25 - 3" (-2.75) outcome.Outcome.phat;
  match outcome.Outcome.candidate with
  | None -> Alcotest.fail "expected candidate"
  | Some x ->
    check_float "candidate achieves phat" outcome.Outcome.phat (Problem.concrete_margin problem x);
    Alcotest.(check bool) "candidate is real counterexample" true
      (Problem.is_counterexample problem x)

let test_deeppoly_candidate_in_region () =
  for seed = 30 to 34 do
    let problem = random_problem ~seed ~eps:0.5 () in
    let outcome = Deeppoly.run problem [] in
    match outcome.Outcome.candidate with
    | None -> ()
    | Some x ->
      Alcotest.(check bool)
        (Printf.sprintf "candidate inside region (seed %d)" seed)
        true
        (Region.contains problem.Problem.region x)
  done

(* --- infeasible splits --- *)

let test_infeasible_split_is_vacuous () =
  (* Force a stable-active neuron to Inactive: infeasible, vacuously
     proved. *)
  let problem = random_problem ~seed:50 ~eps:0.01 () in
  let outcome = Deeppoly.run problem [] in
  let affine = problem.Problem.affine in
  let stable_active =
    let found = ref None in
    Array.iteri
      (fun l (b : Bounds.t) ->
        Array.iteri
          (fun i _ ->
            if !found = None && b.Bounds.lower.(i) > 0.01 then
              found := Some (Affine.relu_index affine ~layer:l ~idx:i))
          b.Bounds.lower)
      outcome.Outcome.pre_bounds;
    !found
  in
  match stable_active with
  | None -> Alcotest.fail "no stable-active neuron found; adjust seed"
  | Some relu ->
    let gamma = Split.extend [] ~relu ~phase:Split.Inactive in
    let child = Deeppoly.run problem gamma in
    Alcotest.(check bool) "infeasible" true child.Outcome.infeasible;
    Alcotest.(check bool) "vacuously proved" true (Outcome.proved child);
    check_float "phat = +inf" infinity child.Outcome.phat

let test_interval_split_infeasible_too () =
  let problem = random_problem ~seed:50 ~eps:0.01 () in
  let outcome = Interval.run problem [] in
  let affine = problem.Problem.affine in
  let found = ref None in
  Array.iteri
    (fun l (b : Bounds.t) ->
      Array.iteri
        (fun i _ ->
          if !found = None && b.Bounds.lower.(i) > 0.01 then
            found := Some (Affine.relu_index affine ~layer:l ~idx:i))
        b.Bounds.lower)
    outcome.Outcome.pre_bounds;
  match !found with
  | None -> Alcotest.fail "no stable-active neuron found"
  | Some relu ->
    let child = Interval.run problem (Split.extend [] ~relu ~phase:Split.Inactive) in
    Alcotest.(check bool) "IBP detects infeasibility" true child.Outcome.infeasible

let test_appver_registry () =
  Alcotest.(check (list string)) "three verifiers"
    [ "deeppoly"; "zonotope"; "interval" ]
    (List.map (fun v -> v.Appver.name) Appver.all);
  List.iter
    (fun v ->
      let problem = random_problem ~seed:70 () in
      let outcome = v.Appver.run problem [] in
      Alcotest.(check bool)
        (v.Appver.name ^ " returns finite or inf phat")
        true
        (not (Float.is_nan outcome.Outcome.phat)))
    Appver.all

(* --- convnet end-to-end bound soundness --- *)

let test_deeppoly_sound_on_convnet () =
  let rng = Rng.create 88 in
  let net =
    Builder.convnet rng ~in_channels:1 ~in_h:6 ~in_w:6
      ~convs:[ { Builder.out_channels = 2; kernel = 3; stride = 2; padding = 1 } ]
      ~dense:[ 8 ] ~num_classes:3
  in
  let center = Array.init 36 (fun _ -> Rng.uniform rng) in
  let label = Network.predict net center in
  let region = Region.linf_ball ~clip:(0.0, 1.0) ~center ~eps:0.05 () in
  let property = Property.robustness ~num_classes:3 ~label in
  let problem = Problem.create ~network:net ~region ~property () in
  let outcome = Deeppoly.run problem [] in
  let rng2 = Rng.create 89 in
  let ok = ref true in
  for _ = 1 to 100 do
    let x = Region.sample rng2 problem.Problem.region in
    if Problem.concrete_margin problem x < outcome.Outcome.phat -. 1e-6 then ok := false
  done;
  Alcotest.(check bool) "convnet phat sound" true !ok

(* --- qcheck: random tiny nets, sampled soundness --- *)

let prop_deeppoly_sound_random_nets =
  QCheck.Test.make ~name:"deeppoly phat sound on random nets" ~count:25
    QCheck.(pair (int_range 0 1000) (int_range 2 5))
    (fun (seed, width) ->
      let problem = random_problem ~seed ~dims:[ 2; width; 2 ] ~eps:0.4 () in
      let outcome = Deeppoly.run problem [] in
      let rng = Rng.create (seed + 10_000) in
      let ok = ref true in
      for _ = 1 to 50 do
        let x = Region.sample rng problem.Problem.region in
        if Problem.concrete_margin problem x < outcome.Outcome.phat -. 1e-6 then ok := false
      done;
      !ok)

let qtest = QCheck_alcotest.to_alcotest

let suite =
  [ ( "prop.bounds",
      [ Alcotest.test_case "infeasible detection" `Quick test_bounds_infeasible_detection;
        Alcotest.test_case "apply split" `Quick test_bounds_apply_split;
        Alcotest.test_case "split infeasible" `Quick test_bounds_split_can_be_infeasible;
        Alcotest.test_case "relu states" `Quick test_bounds_relu_states
      ] );
    ( "prop.soundness",
      [ Alcotest.test_case "interval hidden bounds" `Quick test_interval_bounds_sound;
        Alcotest.test_case "deeppoly hidden bounds" `Quick test_deeppoly_bounds_sound;
        Alcotest.test_case "deeppoly under splits" `Quick test_deeppoly_sound_under_splits;
        Alcotest.test_case "interval phat" `Quick test_interval_phat_sound;
        Alcotest.test_case "deeppoly phat" `Quick test_deeppoly_phat_sound;
        Alcotest.test_case "convnet phat" `Quick test_deeppoly_sound_on_convnet;
        qtest prop_deeppoly_sound_random_nets
      ] );
    ( "prop.precision",
      [ Alcotest.test_case "deeppoly tighter than IBP" `Quick test_deeppoly_tighter_than_interval;
        Alcotest.test_case "proves easy property" `Quick test_deeppoly_proves_easy_property;
        Alcotest.test_case "exact on linear net" `Quick test_deeppoly_exact_on_linear_net;
        Alcotest.test_case "candidate in region" `Quick test_deeppoly_candidate_in_region
      ] );
    ( "prop.splits",
      [ Alcotest.test_case "infeasible split vacuous" `Quick test_infeasible_split_is_vacuous;
        Alcotest.test_case "interval infeasibility" `Quick test_interval_split_infeasible_too
      ] );
    ( "prop.appver", [ Alcotest.test_case "registry" `Quick test_appver_registry ] )
  ]

(* --- Zonotope (DeepZ) --- *)

module Zonotope = Abonn_prop.Zonotope

let test_zonotope_bounds_sound () =
  let problem = random_problem ~seed:2 () in
  match Zonotope.hidden_bounds problem [] with
  | None -> Alcotest.fail "unexpected infeasibility"
  | Some b ->
    Alcotest.(check bool) "zonotope bounds contain samples" true
      (bounds_contain_samples b problem 103)

let test_zonotope_phat_sound () =
  for seed = 5 to 8 do
    let problem = random_problem ~seed () in
    Alcotest.(check bool)
      (Printf.sprintf "zonotope phat sound (seed %d)" seed)
      true
      (phat_below_sampled_margins Zonotope.run problem)
  done

let test_zonotope_tighter_than_interval () =
  (* Zonotopes refine intervals: affine forms keep correlations, so the
     certified bound can only improve on IBP. *)
  for seed = 10 to 16 do
    let problem = random_problem ~seed () in
    let z = Zonotope.run problem [] in
    let ibp = Interval.run problem [] in
    Alcotest.(check bool)
      (Printf.sprintf "zonotope >= interval (seed %d)" seed)
      true
      (z.Outcome.phat >= ibp.Outcome.phat -. 1e-9)
  done

let test_zonotope_exact_on_linear_net () =
  (* No ReLU stage: the zonotope is exact, like every other domain. *)
  let w = Matrix.of_rows [| [| 1.0; -2.0 |] |] in
  let affine = Affine.of_weights [ (w, [| 0.25 |]) ] in
  let region = Region.create ~lower:[| -1.0; -1.0 |] ~upper:[| 1.0; 1.0 |] in
  let property = Property.single [| 1.0 |] 0.0 in
  let problem = Problem.of_affine ~affine ~region ~property () in
  let outcome = Zonotope.run problem [] in
  check_float "phat exact" (-2.75) outcome.Outcome.phat;
  match outcome.Outcome.candidate with
  | None -> Alcotest.fail "expected candidate"
  | Some x ->
    check_float "candidate achieves phat" outcome.Outcome.phat
      (Problem.concrete_margin problem x)

let test_zonotope_infeasible_split_vacuous () =
  let problem = random_problem ~seed:50 ~eps:0.01 () in
  let outcome = Zonotope.run problem [] in
  let affine = problem.Problem.affine in
  let found = ref None in
  Array.iteri
    (fun l (b : Bounds.t) ->
      Array.iteri
        (fun i _ ->
          if !found = None && b.Bounds.lower.(i) > 0.01 then
            found := Some (Affine.relu_index affine ~layer:l ~idx:i))
        b.Bounds.lower)
    outcome.Outcome.pre_bounds;
  match !found with
  | None -> Alcotest.fail "no stable-active neuron"
  | Some relu ->
    let child = Zonotope.run problem (Split.extend [] ~relu ~phase:Split.Inactive) in
    Alcotest.(check bool) "vacuous" true child.Outcome.infeasible

let test_zonotope_sound_under_splits () =
  let problem = random_problem ~seed:3 () in
  let affine = problem.Problem.affine in
  let base = Zonotope.run problem [] in
  match Bounds.unstable_indices base.Outcome.pre_bounds.(0) with
  | [] -> Alcotest.fail "expected unstable relu"
  | idx :: _ ->
    let relu = Affine.relu_index affine ~layer:0 ~idx in
    List.iter
      (fun phase ->
        let gamma = Split.extend [] ~relu ~phase in
        let outcome = Zonotope.run problem gamma in
        if not outcome.Outcome.infeasible then begin
          let rng = Rng.create 66 in
          let ok = ref true in
          for _ = 1 to 300 do
            let x = Region.sample rng problem.Problem.region in
            if Split.satisfied_by affine gamma x
               && Problem.concrete_margin problem x < outcome.Outcome.phat -. 1e-6
            then ok := false
          done;
          Alcotest.(check bool) "split-restricted soundness" true !ok
        end)
      [ Split.Active; Split.Inactive ]

let zonotope_tests =
  ( "prop.zonotope",
    [ Alcotest.test_case "bounds sound" `Quick test_zonotope_bounds_sound;
      Alcotest.test_case "phat sound" `Quick test_zonotope_phat_sound;
      Alcotest.test_case "tighter than interval" `Quick test_zonotope_tighter_than_interval;
      Alcotest.test_case "exact on linear" `Quick test_zonotope_exact_on_linear_net;
      Alcotest.test_case "infeasible split" `Quick test_zonotope_infeasible_split_vacuous;
      Alcotest.test_case "sound under splits" `Quick test_zonotope_sound_under_splits
    ] )

let suite = suite @ [ zonotope_tests ]
