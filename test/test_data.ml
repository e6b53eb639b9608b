(* Tests for Abonn_data: dataset determinism and shape, prototype
   separation, model zoo training, instance generation invariants. *)

module Rng = Abonn_util.Rng
module Synth = Abonn_data.Synth
module Models = Abonn_data.Models
module Instances = Abonn_data.Instances
module Trainer = Abonn_nn.Trainer
module Network = Abonn_nn.Network
module Vector = Abonn_tensor.Vector
module Outcome = Abonn_prop.Outcome
module Problem = Abonn_spec.Problem
module Region = Abonn_spec.Region

(* --- Synth --- *)

let test_synth_shapes () =
  let d = Synth.mnist_like ~train_size:50 ~test_size:10 () in
  Alcotest.(check int) "input dim" 100 (Synth.input_dim d);
  Alcotest.(check int) "train size" 50 (Array.length d.Synth.train);
  Alcotest.(check int) "test size" 10 (Array.length d.Synth.test);
  let c = Synth.cifar_like ~train_size:20 ~test_size:5 () in
  Alcotest.(check int) "cifar input dim" 192 (Synth.input_dim c)

let test_synth_deterministic () =
  let a = Synth.mnist_like ~train_size:20 ~test_size:5 () in
  let b = Synth.mnist_like ~train_size:20 ~test_size:5 () in
  Alcotest.(check bool) "same data" true
    (Array.for_all2
       (fun (x : Trainer.sample) (y : Trainer.sample) ->
         x.Trainer.label = y.Trainer.label && x.Trainer.features = y.Trainer.features)
       a.Synth.train b.Synth.train)

let test_synth_pixels_in_range () =
  let d = Synth.cifar_like ~train_size:30 ~test_size:5 () in
  Array.iter
    (fun (s : Trainer.sample) ->
      Array.iter
        (fun p -> Alcotest.(check bool) "pixel in [0,1]" true (p >= 0.0 && p <= 1.0))
        s.Trainer.features)
    d.Synth.train

let test_synth_labels_balanced () =
  let d = Synth.mnist_like ~train_size:100 ~test_size:10 () in
  let counts = Array.make 10 0 in
  Array.iter (fun (s : Trainer.sample) -> counts.(s.Trainer.label) <- counts.(s.Trainer.label) + 1)
    d.Synth.train;
  Array.iter (fun c -> Alcotest.(check int) "balanced" 10 c) counts

let test_synth_prototypes_distinct () =
  let d = Synth.mnist_like ~train_size:10 ~test_size:5 () in
  let p0 = Synth.prototype d 0 and p5 = Synth.prototype d 5 in
  Alcotest.(check bool) "prototypes differ" true
    (Vector.norm_inf (Vector.sub p0 p5) > 0.1)

let test_synth_rejects_bad_class () =
  let d = Synth.mnist_like ~train_size:10 ~test_size:5 () in
  Alcotest.(check bool) "raises" true
    (try ignore (Synth.prototype d 10); false with Invalid_argument _ -> true)

(* --- Models --- *)

let test_models_registry () =
  Alcotest.(check int) "five families" 5 (List.length Models.all);
  Alcotest.(check bool) "find works" true (Models.find "cifar_deep" <> None);
  Alcotest.(check bool) "unknown none" true (Models.find "lenet" = None)

let test_models_architectures_relate () =
  (* Structural relationships of Table I must hold on the scaled zoo. *)
  let layers spec =
    let rng = Rng.create 0 in
    List.length (Abonn_nn.Network.layers (spec.Models.build rng))
  in
  Alcotest.(check bool) "L4 deeper than L2" true (layers Models.mnist_l4 > layers Models.mnist_l2);
  Alcotest.(check bool) "deep deeper than base" true
    (layers Models.cifar_deep > layers Models.cifar_base);
  let neurons spec =
    let rng = Rng.create 0 in
    Abonn_nn.Network.num_neurons (spec.Models.build rng)
  in
  Alcotest.(check bool) "wide wider than base" true
    (neurons Models.cifar_wide > neurons Models.cifar_base)

let small_trained =
  lazy (Models.train ~epochs:6 Models.mnist_l2)

let test_models_training_learns () =
  let t = Lazy.force small_trained in
  Alcotest.(check bool)
    (Printf.sprintf "test accuracy %.2f >= 0.8" t.Models.test_accuracy)
    true
    (t.Models.test_accuracy >= 0.8)

let test_models_training_deterministic () =
  let a = Models.train ~epochs:2 Models.mnist_l2 in
  let b = Models.train ~epochs:2 Models.mnist_l2 in
  let x = Array.make 100 0.3 in
  Alcotest.(check bool) "same network" true
    (Vector.approx_equal
       (Network.forward a.Models.network x)
       (Network.forward b.Models.network x))

(* The cache is keyed by seed and epochs: a seed-3 call after a seed-7
   call into the same directory trains the seed-3 network, and a second
   seed-3 call loads it bit for bit. *)
let test_models_cache_roundtrip () =
  let dir = Filename.temp_file "abonn_models" "" in
  Sys.remove dir;
  let cached seed = Models.train_cached ~dir ~seed ~epochs:2 Models.mnist_l2 in
  let _seed7 = cached 7 in
  let t1 = cached 3 in
  let t2 = cached 3 in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun seed ->
          Sys.remove
            (Filename.concat dir (Models.cache_file ~seed ~epochs:2 Models.mnist_l2)))
        [ 3; 7 ];
      Sys.rmdir dir)
    (fun () ->
      let fresh = Models.train ~seed:3 ~epochs:2 Models.mnist_l2 in
      let x = Array.make 100 0.7 in
      let bits t = Abonn_nn.Onnx.to_bytes t.Models.network in
      Alcotest.(check bool) "first seed-3 call is the seed-3 network" true
        (bits t1 = bits fresh);
      Alcotest.(check bool) "second seed-3 call loads it bit for bit" true
        (bits t2 = bits t1);
      Alcotest.(check bool) "cached network identical" true
        (Vector.approx_equal
           (Network.forward t1.Models.network x)
           (Network.forward t2.Models.network x)))

(* --- Instances --- *)

let test_instances_generation_invariants () =
  let t = Lazy.force small_trained in
  let instances = Instances.generate ~count:6 t in
  Alcotest.(check bool) "non-empty" true (List.length instances > 0);
  List.iter
    (fun (i : Instances.t) ->
      Alcotest.(check string) "model name" "mnist_l2" i.Instances.model;
      Alcotest.(check bool) "positive eps" true (i.Instances.eps > 0.0);
      (* every instance must be undecided at the root by construction *)
      let outcome = Abonn_prop.Deeppoly.run i.Instances.problem [] in
      Alcotest.(check bool) "root undecided" true (not (Outcome.proved outcome));
      match outcome.Outcome.candidate with
      | Some x ->
        Alcotest.(check bool) "candidate spurious" true
          (not (Problem.is_counterexample i.Instances.problem x))
      | None -> ())
    instances

let test_instances_unique_ids () =
  let t = Lazy.force small_trained in
  let instances = Instances.generate ~count:6 t in
  let ids = List.map (fun (i : Instances.t) -> i.Instances.id) instances in
  Alcotest.(check int) "unique ids" (List.length ids) (List.length (List.sort_uniq compare ids))

let test_certified_radius_is_certified () =
  let t = Lazy.force small_trained in
  let affine = Abonn_nn.Affine.of_network t.Models.network in
  let sample = t.Models.dataset.Synth.test.(0) in
  let center = sample.Trainer.features in
  let label = sample.Trainer.label in
  let r = Instances.certified_radius ~affine ~center ~label ~num_classes:10 in
  Alcotest.(check bool) "radius positive" true (r > 0.0);
  (* the radius itself must certify *)
  let region = Region.linf_ball ~clip:(0.0, 1.0) ~center ~eps:r () in
  let property = Abonn_spec.Property.robustness ~num_classes:10 ~label in
  let problem = Problem.of_affine ~affine ~region ~property () in
  Alcotest.(check bool) "certifies at r" true
    (Outcome.proved (Abonn_prop.Deeppoly.run problem []))

(* Instance generation bounds candidates outside any run: bisecting a
   certified radius must not look like AppVer calls to a trace. *)
let test_certified_radius_untraced () =
  let t = Lazy.force small_trained in
  let affine = Abonn_nn.Affine.of_network t.Models.network in
  let sample = t.Models.dataset.Synth.test.(0) in
  let sink, events = Abonn_obs.Sink.memory () in
  ignore
    (Abonn_obs.Obs.with_sink sink (fun () ->
         Instances.certified_radius ~affine ~center:sample.Trainer.features
           ~label:sample.Trainer.label ~num_classes:10));
  let bound_computed =
    List.filter
      (fun (e : Abonn_obs.Event.envelope) ->
        Abonn_obs.Event.name e.Abonn_obs.Event.event = "bound_computed")
      (events ())
  in
  Alcotest.(check int) "bound_computed events" 0 (List.length bound_computed)

let test_instances_regions_clipped () =
  let t = Lazy.force small_trained in
  let instances = Instances.generate ~count:4 t in
  List.iter
    (fun (i : Instances.t) ->
      let region = i.Instances.problem.Problem.region in
      Array.iter
        (fun lo -> Alcotest.(check bool) "lower >= 0" true (lo >= 0.0))
        region.Region.lower;
      Array.iter
        (fun hi -> Alcotest.(check bool) "upper <= 1" true (hi <= 1.0))
        region.Region.upper)
    instances

let suite =
  [ ( "data.synth",
      [ Alcotest.test_case "shapes" `Quick test_synth_shapes;
        Alcotest.test_case "deterministic" `Quick test_synth_deterministic;
        Alcotest.test_case "pixels in range" `Quick test_synth_pixels_in_range;
        Alcotest.test_case "labels balanced" `Quick test_synth_labels_balanced;
        Alcotest.test_case "prototypes distinct" `Quick test_synth_prototypes_distinct;
        Alcotest.test_case "rejects bad class" `Quick test_synth_rejects_bad_class
      ] );
    ( "data.models",
      [ Alcotest.test_case "registry" `Quick test_models_registry;
        Alcotest.test_case "architectures relate" `Quick test_models_architectures_relate;
        Alcotest.test_case "training learns" `Quick test_models_training_learns;
        Alcotest.test_case "training deterministic" `Quick test_models_training_deterministic;
        Alcotest.test_case "cache roundtrip" `Quick test_models_cache_roundtrip
      ] );
    ( "data.instances",
      [ Alcotest.test_case "generation invariants" `Quick test_instances_generation_invariants;
        Alcotest.test_case "unique ids" `Quick test_instances_unique_ids;
        Alcotest.test_case "certified radius" `Quick test_certified_radius_is_certified;
        Alcotest.test_case "certified radius untraced" `Quick test_certified_radius_untraced;
        Alcotest.test_case "regions clipped" `Quick test_instances_regions_clipped
      ] )
  ]
