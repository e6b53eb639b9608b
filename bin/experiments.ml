(* experiments: regenerate every table and figure of the paper's §V.

   Usage:
     experiments -- all                    (everything, default budgets)
     experiments -- table1 fig3 table2
     experiments --quick -- table2         (small suite, small budgets)

   Artifacts map (DESIGN.md §3):
     table1 -> Table I, fig3 -> Fig. 3, table2+fig4 -> RQ1,
     fig5 -> RQ2, fig6 -> RQ3, ablation -> extension. *)

open Cmdliner
module Experiment = Abonn_harness.Experiment
module Report = Abonn_harness.Report
module Obs = Abonn_obs.Obs
module Sink = Abonn_obs.Sink
module Registry = Abonn_trace.Registry
module Runner = Abonn_harness.Runner
module Instances = Abonn_data.Instances
module Verdict = Abonn_spec.Verdict
module Result = Abonn_bab.Result

(* Regenerate-able outputs (raw CSVs) land here, out of version control. *)
let results_dir = "results"

let ensure_results_dir () =
  if not (Sys.file_exists results_dir) then Unix.mkdir results_dir 0o755

type settings = {
  instances_per_model : int;
  rq1_calls : int;
  rq2_calls : int;
  rq2_instances : int;
  epochs : int;
}

let full = { instances_per_model = 8; rq1_calls = 600; rq2_calls = 120; rq2_instances = 2; epochs = 15 }

let quick = { instances_per_model = 4; rq1_calls = 200; rq2_calls = 100; rq2_instances = 2; epochs = 8 }

let known =
  [ "table1"; "fig3"; "table2"; "fig4"; "fig5"; "fig6"; "ablation"; "deepviolated"; "all" ]

let run quick_mode progress artifacts =
  let artifacts = if artifacts = [] then [ "all" ] else artifacts in
  match List.find_opt (fun a -> not (List.mem a known)) artifacts with
  | Some bad ->
    `Error (false, Printf.sprintf "unknown artifact %s (known: %s)" bad (String.concat ", " known))
  | None ->
    let heartbeat = Option.map (fun every -> Abonn_trace.Monitor.progress ~every ()) progress in
    Option.iter Obs.install heartbeat;
    Fun.protect ~finally:(fun () ->
        Option.iter
          (fun s ->
            Obs.remove s;
            s.Sink.close ())
          heartbeat)
    @@ fun () ->
    let s = if quick_mode then quick else full in
    let wants a = List.mem a artifacts || List.mem "all" artifacts in
    let t0 = Unix.gettimeofday () in
    Printf.printf "building benchmark suite (5 models x %d instances)...\n%!"
      s.instances_per_model;
    let suite =
      Experiment.build_suite ~instances_per_model:s.instances_per_model ~epochs:s.epochs ()
    in
    Printf.printf "suite ready: %d instances (%.1fs)\n\n%!"
      (List.length suite.Experiment.instances)
      (Unix.gettimeofday () -. t0);
    if wants "table1" then print_endline (Report.table1 (Experiment.table1 suite));
    let rq1 = lazy (Experiment.rq1 ~calls:s.rq1_calls suite) in
    if wants "fig3" then print_endline (Report.fig3 (Experiment.fig3 (Lazy.force rq1)));
    if wants "table2" then begin
      print_endline (Report.table2 (Experiment.table2 (Lazy.force rq1)));
      ensure_results_dir ();
      let csv_path = Filename.concat results_dir "results.csv" in
      let oc = open_out csv_path in
      output_string oc (Report.csv (Lazy.force rq1).Experiment.records);
      close_out oc;
      Printf.printf "(raw records written to %s)\n\n%!" csv_path
    end;
    if wants "fig4" then print_endline (Report.fig4 (Experiment.fig4 (Lazy.force rq1)));
    if wants "fig5" then
      print_endline
        (Report.fig5
           (Experiment.rq2 ~calls:s.rq2_calls ~max_instances:s.rq2_instances suite));
    if wants "fig6" then print_endline (Report.fig6 (Experiment.rq3 (Lazy.force rq1)));
    if wants "ablation" then
      print_endline
        (Report.ablation
           (Experiment.ablation ~calls:s.rq2_calls ~max_instances:s.rq2_instances suite));
    if wants "deepviolated" then begin
      print_endline "mining deep-violation instances (attack-boundary screening)...";
      print_endline
        (Report.deepviolated
           (Experiment.deepviolated
              ~screen_calls:(if quick_mode then 400 else 1500)
              ~pool_per_model:(if quick_mode then 6 else 16)
              ()))
    end;
    (* every (engine × instance) run of the sweep goes into the campaign
       registry, one self-contained line per run (keyed by commit) *)
    if Lazy.is_val rq1 then begin
      ensure_results_dir ();
      let records = (Lazy.force rq1).Experiment.records in
      List.iter
        (fun (r : Runner.record) ->
          Registry.append
            (* the harness sweep pins domains to the library default,
               which is 1 unless ABONN_DOMAINS overrides it *)
            (Registry.make ~domains:(Abonn_par.Pool.default_domains ())
               ~source_format:"synthetic" ~engine:r.Runner.engine
               ~model:r.Runner.instance.Instances.model
               ~instance:r.Runner.instance.Instances.id
               ~seed:r.Runner.instance.Instances.index
               ~verdict:(Verdict.to_string r.Runner.result.Result.verdict)
               ~wall:r.Runner.result.Result.stats.Result.wall_time
               ~calls:r.Runner.result.Result.stats.Result.appver_calls
               ~nodes:r.Runner.result.Result.stats.Result.nodes
               ~max_depth:r.Runner.result.Result.stats.Result.max_depth ()))
        records;
      Printf.printf "(%d run records appended to %s)\n%!" (List.length records)
        Registry.default_path
    end;
    Printf.printf "total experiment time: %.1fs\n%!" (Unix.gettimeofday () -. t0);
    `Ok ()

let quick_arg =
  Arg.(value & flag & info [ "quick" ] ~doc:"Small suite and budgets (CI-sized run).")

let progress_arg =
  Arg.(value & opt ~vopt:(Some 5.0) (some float) None
       & info [ "progress" ] ~docv:"SECS"
           ~doc:"Live single-line heartbeat on stderr while the sweep runs, refreshed \
                 every $(docv) seconds (default 5).")

let artifacts_arg =
  Arg.(value & pos_all string [] & info [] ~docv:"ARTIFACT" ~doc:"Artifacts to regenerate.")

let cmd =
  let doc = "regenerate the paper's tables and figures" in
  Cmd.v (Cmd.info "experiments" ~doc)
    Term.(ret (const run $ quick_arg $ progress_arg $ artifacts_arg))

let () = exit (Cmd.eval cmd)
