(* Tests of the benchmark's own code: the decided-only verdict quantile,
   and the layer wrappers' promise to change nothing but the clock. *)

open Ttvbench
module Rng = Abonn_util.Rng
module Builder = Abonn_nn.Builder
module Network = Abonn_nn.Network
module Region = Abonn_spec.Region
module Property = Abonn_spec.Property
module Problem = Abonn_spec.Problem
module Verdict = Abonn_spec.Verdict

let close = Alcotest.float 1e-12

let test_tail_needs_ten_beyond () =
  let times n = List.init n (fun i -> (Verdict.Verified, float_of_int (i + 1))) in
  Alcotest.(check (option close)) "39 decided: no p75" None
    (Stats.verdict_percentile ~min_beyond:10 0.75 (times 39));
  Alcotest.(check (option close)) "40 decided: p75 interpolated" (Some 30.25)
    (Stats.verdict_percentile ~min_beyond:10 0.75 (times 40));
  Alcotest.(check (option close)) "the median has no tail rule" (Some 1.0)
    (Stats.verdict_percentile 0.5 (times 1))

let test_timeouts_left_out () =
  let decided = List.init 40 (fun i -> (Verdict.Falsified [||], float_of_int (i + 1))) in
  let timeouts = List.init 100 (fun _ -> (Verdict.Timeout, 1e3)) in
  Alcotest.(check (option close)) "p50 of the decided only" (Some 20.5)
    (Stats.verdict_percentile 0.5 (decided @ timeouts));
  Alcotest.(check (option close)) "p75 of the decided only" (Some 30.25)
    (Stats.verdict_percentile ~min_beyond:10 0.75 (timeouts @ decided));
  Alcotest.(check (option close)) "no decided solve" None
    (Stats.verdict_percentile 0.5 timeouts)

(* Small enough to solve in milliseconds, wide enough to branch. *)
let small_problem (seed, eps) =
  let rng = Rng.create seed in
  let network = Builder.mlp rng ~dims:[ 3; 10; 10; 3 ] in
  let center = Array.init 3 (fun _ -> Rng.range rng (-0.5) 0.5) in
  let region = Region.linf_ball ~center ~eps () in
  let property = Property.robustness ~num_classes:3 ~label:(Network.predict network center) in
  Problem.create ~network ~region ~property ()

let engines = Workload.[ Bfs; Ab_crown; Abonn; Inputsplit ]

(* (seed, eps): the narrower regions resist ab-crown's attack, so every
   engine, ab-crown included, branches on some problem *)
let for_each_solve f =
  List.iter
    (fun case ->
      let problem = small_problem case in
      List.iter (fun engine -> f engine problem) engines)
    [ (1, 0.15); (2, 0.15); (3, 0.05); (4, 0.05) ]

let test_wrappers_do_not_change_work () =
  let branched = ref [] in
  for_each_solve (fun engine problem ->
      let name = Workload.engine_name engine in
      let plain = Workload.solve engine ~calls:60 problem in
      let traced, layers = Workload.solve_traced engine ~calls:60 problem in
      Alcotest.(check bool) (name ^ " verdict") true (Verdict.equal plain.verdict traced.verdict);
      Alcotest.(check int) (name ^ " calls") plain.calls traced.calls;
      Alcotest.(check int) (name ^ " nodes") plain.nodes traced.nodes;
      (* the probe saw every bound the engine computed *)
      Alcotest.(check bool) (name ^ " bounds observed") true
        (layers.probe.prop_calls + layers.exact_leaves >= traced.calls);
      if traced.nodes > 1 then branched := engine :: !branched);
  List.iter
    (fun engine ->
      Alcotest.(check bool) (Workload.engine_name engine ^ " branches") true
        (List.mem engine !branched))
    engines

let test_self_times_sum_to_solve () =
  for_each_solve (fun engine problem ->
      let name = Workload.engine_name engine in
      let o, l = Workload.solve_traced engine ~calls:60 problem in
      let p = l.probe in
      let parts =
        [ p.prop_busy; p.branch_prepare; p.branch_busy; p.attack_busy; l.lp_busy; l.self_s ]
      in
      List.iter (fun t -> Alcotest.(check bool) (name ^ " part >= 0") true (t >= 0.0)) parts;
      Alcotest.(check (float 1e-9)) (name ^ " parts sum to the solve") o.wall
        (List.fold_left ( +. ) 0.0 parts))

let () =
  Alcotest.run "ttvbench"
    [ ( "stats",
        [ Alcotest.test_case "p75 needs ten decided solves beyond it" `Quick
            test_tail_needs_ten_beyond;
          Alcotest.test_case "timeouts are left out" `Quick test_timeouts_left_out ] );
      ( "probe",
        [ Alcotest.test_case "wrappers leave verdict, calls and nodes" `Quick
            test_wrappers_do_not_change_work;
          Alcotest.test_case "layer times sum back to the solve" `Quick
            test_self_times_sum_to_solve ] ) ]
