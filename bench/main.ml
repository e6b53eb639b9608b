(* Benchmark harness: Bechamel tests of the reproduced tables/figures
   that run the engines, plus micro-benchmarks of the verification
   kernels.

     dune exec bench/main.exe
     dune exec bench/main.exe -- --json BENCH_kernels.json

   The table/figure benches run scaled-down versions of the §V artifacts
   (the full runs live in bin/experiments.exe); the kernel benches time
   one AppVer call per engine/model, which is the unit the paper's
   wall-clock measurements are made of.  Bechamel estimates the
   per-execution cost by OLS over repeated runs.  [--json FILE] appends
   a machine-readable snapshot (name -> ns/run) so the perf trajectory
   can be tracked across commits. *)

open Bechamel
open Toolkit
module Models = Abonn_data.Models
module Instances = Abonn_data.Instances
module Experiment = Abonn_harness.Experiment
module Runner = Abonn_harness.Runner
module Budget = Abonn_util.Budget

(* Shared state, built once: a miniature benchmark suite. *)
let suite =
  Printf.printf "preparing mini benchmark suite (2 model families)...\n%!";
  Experiment.build_suite ~instances_per_model:3 ~epochs:8
    ~models:[ Models.mnist_l2; Models.cifar_base ] ()

let first_problem =
  match suite.Experiment.instances with
  | inst :: _ -> inst.Instances.problem
  | [] -> failwith "empty suite"

let mini_calls = 120

(* --- table/figure benches (scaled-down §V runs) --- *)

let bench_fig3 =
  Test.make ~name:"fig3"
    (Staged.stage (fun () ->
         let rq = Experiment.rq1 ~calls:mini_calls ~engines:[ Runner.bab_baseline ] suite in
         Experiment.fig3 rq))

let bench_table2_rq1 =
  Test.make ~name:"table2_rq1"
    (Staged.stage (fun () ->
         let rq = Experiment.rq1 ~calls:mini_calls suite in
         Experiment.table2 rq))

let bench_fig4_scatter =
  Test.make ~name:"fig4_scatter"
    (Staged.stage (fun () ->
         let rq =
           Experiment.rq1 ~calls:mini_calls
             ~engines:[ Runner.bab_baseline; Runner.abonn () ]
             suite
         in
         Experiment.fig4 rq))

let bench_fig6_boxes =
  Test.make ~name:"fig6_boxes"
    (Staged.stage (fun () ->
         let rq =
           Experiment.rq1 ~calls:mini_calls
             ~engines:[ Runner.bab_baseline; Runner.abonn () ]
             suite
         in
         Experiment.rq3 rq))

let bench_ablation =
  Test.make ~name:"ablation"
    (Staged.stage (fun () -> Experiment.ablation ~calls:60 ~max_instances:2 suite))

(* --- kernel micro-benches --- *)

let bench_appver_deeppoly =
  Test.make ~name:"kernel_deeppoly_call"
    (Staged.stage (fun () -> Abonn_prop.Deeppoly.run first_problem []))

let bench_appver_interval =
  Test.make ~name:"kernel_interval_call"
    (Staged.stage (fun () -> Abonn_prop.Interval.run first_problem []))

let bench_appver_zonotope =
  Test.make ~name:"kernel_zonotope_call"
    (Staged.stage (fun () -> Abonn_prop.Zonotope.run first_problem []))

let bench_appver_lp =
  Test.make ~name:"kernel_lp_call"
    (Staged.stage (fun () -> Abonn_lp.Lp_verifier.run first_problem []))

let bench_appver_lp_warm =
  (* one split below the root, phase matched to the region centre so the
     cell stays feasible: the call re-optimises the root's cached basis
     by dual simplex instead of solving the first property row from
     scratch as kernel_lp_call does; both reoptimize the remaining rows
     on the live tableau (DESIGN.md §13) *)
  let child_gamma =
    let affine = first_problem.Abonn_spec.Problem.affine in
    let region = first_problem.Abonn_spec.Problem.region in
    let centre =
      Array.map2
        (fun lo hi -> 0.5 *. (lo +. hi))
        region.Abonn_spec.Region.lower region.Abonn_spec.Region.upper
    in
    let pre = Abonn_nn.Affine.pre_activations affine centre in
    let layer, idx = Abonn_nn.Affine.relu_position affine 0 in
    let phase =
      if pre.(layer).(idx) >= 0.0 then Abonn_spec.Split.Active
      else Abonn_spec.Split.Inactive
    in
    [ { Abonn_spec.Split.relu = 0; phase } ]
  in
  let root_state = snd (Abonn_lp.Lp_verifier.run_warm first_problem []) in
  Test.make ~name:"kernel_lp_warm"
    (Staged.stage (fun () ->
         Abonn_lp.Lp_verifier.run_warm ?state:root_state first_problem child_gamma))

let bench_engine_bfs =
  Test.make ~name:"engine_bfs_120calls"
    (Staged.stage (fun () ->
         Abonn_bab.Bfs.verify ~budget:(Budget.of_calls mini_calls) first_problem))

let bench_engine_abonn =
  Test.make ~name:"engine_abonn_120calls"
    (Staged.stage (fun () ->
         Abonn_core.Abonn.verify ~budget:(Budget.of_calls mini_calls) first_problem))

let bench_attack_pgd =
  Test.make ~name:"kernel_pgd_attack"
    (Staged.stage (fun () ->
         (Abonn_attack.Attack.pgd ()).Abonn_attack.Attack.run
           (Abonn_util.Rng.create 1) first_problem))

let tests =
  Test.make_grouped ~name:"abonn"
    [ bench_fig3; bench_table2_rq1; bench_fig4_scatter; bench_fig6_boxes; bench_ablation;
      bench_appver_deeppoly;
      bench_appver_interval; bench_appver_zonotope; bench_appver_lp; bench_appver_lp_warm;
      bench_engine_bfs; bench_engine_abonn; bench_attack_pgd ]

(* name -> (ns/run estimate, r^2), nested under "rows" with schema,
   commit and date stamps at top level so numbers stay traceable to the
   code that produced them.  Non-finite estimates (no samples) are
   encoded as null. *)
let write_json path rows =
  let oc = open_out path in
  output_string oc
    (Printf.sprintf "{\n  \"schema\": 1,\n  \"commit\": %S,\n  \"date\": %S,\n"
       (Abonn_util.Provenance.git_commit ())
       (Abonn_util.Provenance.iso_now ()));
  output_string oc "  \"rows\": {\n";
  let n = List.length rows in
  List.iteri
    (fun i (name, est_ns, r2) ->
      let num v = if Float.is_nan v then "null" else Printf.sprintf "%.3f" v in
      output_string oc
        (Printf.sprintf "    %S: {\"ns_per_run\": %s, \"r_square\": %s}%s\n" name
           (num est_ns) (num r2)
           (if i = n - 1 then "" else ",")))
    rows;
  output_string oc "  }\n}\n";
  close_out oc;
  Printf.printf "json results written to: %s\n%!" path

let json_path =
  let rec scan = function
    | "--json" :: path :: _ -> Some path
    | _ :: rest -> scan rest
    | [] -> None
  in
  scan (Array.to_list Sys.argv)

let () =
  let cfg =
    Benchmark.cfg ~limit:8 ~quota:(Time.second 20.0) ~sampling:(`Linear 1) ~stabilize:false
      ()
  in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let estimate =
          match Analyze.OLS.estimates ols with Some (e :: _) -> e | Some [] | None -> nan
        in
        let r2 = Option.value ~default:nan (Analyze.OLS.r_square ols) in
        (name, estimate, r2) :: acc)
      results []
    |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
  in
  print_newline ();
  Printf.printf "%-32s %16s %8s\n" "benchmark" "per-run" "r^2";
  Printf.printf "%s\n" (String.make 58 '-');
  List.iter
    (fun (name, est_ns, r2) ->
      let pretty =
        if Float.is_nan est_ns then "n/a"
        else if est_ns > 1e9 then Printf.sprintf "%.3f s" (est_ns /. 1e9)
        else if est_ns > 1e6 then Printf.sprintf "%.3f ms" (est_ns /. 1e6)
        else Printf.sprintf "%.3f us" (est_ns /. 1e3)
      in
      Printf.printf "%-32s %16s %8.4f\n" name pretty r2)
    rows;
  Option.iter (fun path -> write_json path rows) json_path
