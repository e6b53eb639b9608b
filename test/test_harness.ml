(* Tests for Abonn_harness: engine wrappers, cost model, experiment
   drivers (on a miniature suite) and report rendering. *)

module Models = Abonn_data.Models
module Instances = Abonn_data.Instances
module Runner = Abonn_harness.Runner
module Experiment = Abonn_harness.Experiment
module Report = Abonn_harness.Report
module Result = Abonn_bab.Result
module Verdict = Abonn_spec.Verdict
module Summary = Abonn_trace.Summary

(* One shared miniature suite: a single MLP family, few instances, so the
   whole harness test group stays fast. *)
let mini_suite =
  lazy
    (Experiment.build_suite ~instances_per_model:3 ~epochs:6
       ~models:[ Models.mnist_l2 ] ())

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec loop i = i + m <= n && (String.sub s i m = sub || loop (i + 1)) in
  m = 0 || loop 0

(* --- Runner --- *)

let test_runner_engine_names () =
  Alcotest.(check (list string)) "line-up"
    [ "bab-baseline"; "ab-crown"; "abonn" ]
    (List.map (fun (e : Runner.engine) -> e.Runner.name) Runner.default_engines)

let test_runner_record_fields () =
  let suite = Lazy.force mini_suite in
  match suite.Experiment.instances with
  | [] -> Alcotest.fail "no instances"
  | inst :: _ ->
    let r = Runner.run_instance ~calls:50 (Runner.abonn ()) inst in
    Alcotest.(check string) "engine name" "abonn" r.Runner.engine;
    Alcotest.(check bool) "budget respected" true
      (r.Runner.result.Result.stats.Result.appver_calls <= 51);
    Alcotest.(check bool) "model time positive" true (r.Runner.model_time > 0.0)

let test_runner_cost_model_consistent () =
  let suite = Lazy.force mini_suite in
  match suite.Experiment.instances with
  | [] -> Alcotest.fail "no instances"
  | inst :: _ ->
    let r = Runner.run_instance ~calls:50 Runner.bab_baseline inst in
    let calls = r.Runner.result.Result.stats.Result.appver_calls in
    Alcotest.(check bool) "model_time = cost * calls" true
      (calls = 0 || r.Runner.model_time /. float_of_int calls > 0.0)

(* A traced sweep is one segment per run: the cost model, which the
   runner times between two run brackets, emits nothing.  It is cached
   per model, so it is timed here too, whatever ran before. *)
let test_runner_traced_sweep_segments () =
  let suite = Lazy.force mini_suite in
  let sink, events = Abonn_obs.Sink.memory () in
  Abonn_obs.Obs.with_sink sink (fun () ->
      List.iter
        (fun (inst : Instances.t) ->
          ignore (Runner.per_call_cost inst.Instances.problem);
          ignore (Runner.run_instance ~calls:50 Runner.bab_baseline inst))
        suite.Experiment.instances);
  let runs = Summary.runs (events ()) in
  Alcotest.(check int) "one segment per run"
    (List.length suite.Experiment.instances)
    (List.length runs);
  List.iter
    (fun (r : Summary.run) ->
      Alcotest.(check bool) "bracketed" true (r.Summary.reported <> None);
      Alcotest.(check bool) "consistent" true (Summary.consistent r))
    runs

(* --- Experiment --- *)

let test_table1_rows () =
  let suite = Lazy.force mini_suite in
  let rows = Experiment.table1 suite in
  Alcotest.(check int) "one model" 1 (List.length rows);
  let row = List.hd rows in
  Alcotest.(check string) "name" "mnist_l2" row.Experiment.model;
  Alcotest.(check bool) "neurons positive" true (row.Experiment.neurons > 0);
  Alcotest.(check int) "instances counted"
    (List.length suite.Experiment.instances)
    row.Experiment.num_instances

let mini_rq1 = lazy (Experiment.rq1 ~calls:150 (Lazy.force mini_suite))

let test_rq1_covers_all_pairs () =
  let suite = Lazy.force mini_suite in
  let rq = Lazy.force mini_rq1 in
  Alcotest.(check int) "records = engines x instances"
    (3 * List.length suite.Experiment.instances)
    (List.length rq.Experiment.records)

let test_table2_structure () =
  let rq = Lazy.force mini_rq1 in
  let t2 = Experiment.table2 rq in
  Alcotest.(check int) "one model row" 1 (List.length t2);
  let _, cells = List.hd t2 in
  Alcotest.(check int) "three engines" 3 (List.length cells);
  List.iter
    (fun (c : Experiment.table2_cell) ->
      Alcotest.(check bool) "solved bounded" true
        (c.Experiment.solved >= 0 && c.Experiment.solved <= 3))
    cells

let test_fig3_sizes () =
  let rq = Lazy.force mini_rq1 in
  let sizes = Experiment.fig3 rq in
  Alcotest.(check int) "one size per instance"
    (List.length (Lazy.force mini_suite).Experiment.instances)
    (Array.length sizes);
  Array.iter (fun s -> Alcotest.(check bool) "odd node count" true (int_of_float s mod 2 = 1)) sizes

let test_fig4_points_positive () =
  let rq = Lazy.force mini_rq1 in
  let per_model = Experiment.fig4 rq in
  List.iter
    (fun (_, points) ->
      List.iter
        (fun (t, s) ->
          Alcotest.(check bool) "positive time" true (t > 0.0);
          Alcotest.(check bool) "positive speedup" true (s > 0.0))
        points)
    per_model

let test_rq3_classes () =
  let rq = Lazy.force mini_rq1 in
  let per_model = Experiment.rq3 rq in
  List.iter
    (fun (_, boxes) ->
      Alcotest.(check int) "2 engines x 2 classes" 4 (List.length boxes);
      List.iter
        (fun (b : Experiment.rq3_box) ->
          match b.Experiment.box with
          | Some _ -> Alcotest.(check bool) "count positive" true (b.Experiment.count > 0)
          | None -> Alcotest.(check int) "empty box has zero count" 0 b.Experiment.count)
        boxes)
    per_model

let test_rq2_grid_shape () =
  let suite = Lazy.force mini_suite in
  let grids =
    Experiment.rq2 ~calls:60 ~lambdas:[ 0.0; 1.0 ] ~cs:[ 0.0; 0.2 ] ~max_instances:1 suite
  in
  Alcotest.(check int) "one model" 1 (List.length grids);
  let _, g = List.hd grids in
  Alcotest.(check int) "four cells" 4 (List.length g.Experiment.cells);
  List.iter
    (fun (_, v) -> Alcotest.(check bool) "cell finite" true (Float.is_finite v))
    g.Experiment.cells

let test_ablation_rows () =
  let suite = Lazy.force mini_suite in
  let rows = Experiment.ablation ~calls:60 ~max_instances:1 suite in
  Alcotest.(check int) "twelve variants" 12 (List.length rows);
  List.iter
    (fun (name, (c : Experiment.table2_cell)) ->
      Alcotest.(check string) "names match" name c.Experiment.engine)
    rows

(* --- Report rendering --- *)

let test_report_table1 () =
  let s = Report.table1 (Experiment.table1 (Lazy.force mini_suite)) in
  Alcotest.(check bool) "mentions model" true (contains s "mnist_l2");
  Alcotest.(check bool) "has header" true (contains s "#Neurons")

let test_report_table2 () =
  let s = Report.table2 (Experiment.table2 (Lazy.force mini_rq1)) in
  Alcotest.(check bool) "has engines" true (contains s "abonn solved")

let test_report_fig3 () =
  let s = Report.fig3 (Experiment.fig3 (Lazy.force mini_rq1)) in
  Alcotest.(check bool) "histogram rendered" true (contains s "tree sizes");
  Alcotest.(check string) "empty data handled" "Fig. 3: no data\n" (Report.fig3 [||])

let test_report_fig4 () =
  let s = Report.fig4 (Experiment.fig4 (Lazy.force mini_rq1)) in
  Alcotest.(check bool) "speedup text" true (contains s "speedup")

let test_report_fig6 () =
  let s = Report.fig6 (Experiment.rq3 (Lazy.force mini_rq1)) in
  Alcotest.(check bool) "has classes" true (contains s "violated")

let test_report_fig5_and_ablation () =
  let suite = Lazy.force mini_suite in
  let grids =
    Experiment.rq2 ~calls:40 ~lambdas:[ 0.0; 1.0 ] ~cs:[ 0.0 ] ~max_instances:1 suite
  in
  let s = Report.fig5 grids in
  Alcotest.(check bool) "best starred" true (contains s "*");
  let rows = Experiment.ablation ~calls:40 ~max_instances:1 suite in
  let s = Report.ablation rows in
  Alcotest.(check bool) "variants listed" true (contains s "abonn(default)")

let suite =
  [ ( "harness.runner",
      [ Alcotest.test_case "engine names" `Quick test_runner_engine_names;
        Alcotest.test_case "record fields" `Quick test_runner_record_fields;
        Alcotest.test_case "cost model" `Quick test_runner_cost_model_consistent;
        Alcotest.test_case "traced sweep is one segment per run" `Quick
          test_runner_traced_sweep_segments
      ] );
    ( "harness.experiment",
      [ Alcotest.test_case "table1 rows" `Quick test_table1_rows;
        Alcotest.test_case "rq1 coverage" `Quick test_rq1_covers_all_pairs;
        Alcotest.test_case "table2 structure" `Quick test_table2_structure;
        Alcotest.test_case "fig3 sizes" `Quick test_fig3_sizes;
        Alcotest.test_case "fig4 points" `Quick test_fig4_points_positive;
        Alcotest.test_case "rq3 classes" `Quick test_rq3_classes;
        Alcotest.test_case "rq2 grid" `Quick test_rq2_grid_shape;
        Alcotest.test_case "ablation rows" `Quick test_ablation_rows
      ] );
    ( "harness.report",
      [ Alcotest.test_case "table1" `Quick test_report_table1;
        Alcotest.test_case "table2" `Quick test_report_table2;
        Alcotest.test_case "fig3" `Quick test_report_fig3;
        Alcotest.test_case "fig4" `Quick test_report_fig4;
        Alcotest.test_case "fig6" `Quick test_report_fig6;
        Alcotest.test_case "fig5/ablation" `Quick test_report_fig5_and_ablation
      ] )
  ]

let test_report_csv () =
  let rq = Lazy.force mini_rq1 in
  let s = Report.csv rq.Experiment.records in
  let lines = String.split_on_char '\n' s |> List.filter (fun l -> l <> "") in
  Alcotest.(check int) "header + one line per record"
    (1 + List.length rq.Experiment.records)
    (List.length lines);
  Alcotest.(check bool) "header fields" true (contains (List.hd lines) "model_time");
  List.iteri
    (fun i line ->
      if i > 0 then
        Alcotest.(check int) "11 comma-separated fields" 11
          (List.length (String.split_on_char ',' line)))
    lines

let csv_tests = ( "harness.csv", [ Alcotest.test_case "csv export" `Quick test_report_csv ] )

let suite = suite @ [ csv_tests ]
