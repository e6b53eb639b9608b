(* abonn_trace: offline analytics over --trace JSONL files.

   Examples:
     abonn_trace summary run.jsonl
     abonn_trace tree run.jsonl --dot -o tree.dot
     abonn_trace phases run.jsonl
     abonn_trace curve run.jsonl -o curve.csv
     abonn_trace diff abonn.jsonl baseline.jsonl
     abonn_trace watch run.jsonl --calls 2000
     abonn_trace bench --against BENCH_bab_nodes.json --max-regress 20

   Schema: docs/TRACE_SCHEMA.md; analytics: lib/trace. *)

open Cmdliner
module Reader = Abonn_trace.Reader
module Summary = Abonn_trace.Summary
module Tree = Abonn_trace.Tree
module Phases = Abonn_trace.Phases
module Curve = Abonn_trace.Curve
module Diff = Abonn_trace.Diff
module Monitor = Abonn_trace.Monitor
module Regress = Abonn_trace.Regress
module Explain = Abonn_trace.Explain
module Hotspots = Abonn_trace.Hotspots
module Campaign = Abonn_trace.Campaign
module Perfetto = Abonn_trace.Perfetto
module Registry = Abonn_trace.Registry
module Parse_error = Abonn_util.Parse_error

(* Uniform failure contract: an empty, missing or truncated-beyond-
   recovery input exits non-zero with a positioned diagnostic (the
   shared lib/util/parse_error format all front-ends use) — never an
   empty table with exit 0. *)
let positioned ?(line = 1) path fmt =
  Printf.ksprintf
    (fun msg ->
      Parse_error.to_string
        { Parse_error.source = path;
          pos = Parse_error.Line { line; col = 1 };
          token = "";
          msg })
    fmt

let load path =
  match Reader.read_file path with
  | events, issues -> Ok (events, issues)
  | exception Sys_error msg -> Error msg

let print_issues issues =
  if issues <> [] then begin
    Printf.eprintf "%d issue(s) while reading the trace:\n" (List.length issues);
    List.iter (fun i -> Printf.eprintf "  %s\n" (Reader.issue_to_string i)) issues;
    flush stderr
  end

let with_events path f =
  match load path with
  | Error msg -> `Error (false, msg)
  | Ok (events, issues) ->
    print_issues issues;
    if events = [] then
      `Error
        ( false,
          match issues with
          | [] -> positioned path "empty trace: no events"
          | i :: _ ->
            positioned ~line:(Reader.issue_line i) path
              "no parseable events (malformed or truncated beyond recovery)" )
    else f events

(* Select one run segment out of a (possibly multi-run) trace. *)
let nth_segment events n =
  let segs = Summary.segments events in
  match List.nth_opt segs (n - 1) with
  | Some seg -> Ok seg
  | None ->
    Error
      (Printf.sprintf "trace has %d run(s); --run %d is out of range" (List.length segs) n)

let with_segment path run f =
  with_events path (fun events ->
      match nth_segment events run with
      | Error msg -> `Error (false, msg)
      | Ok seg -> f seg)

let output_result out text =
  match out with
  | None ->
    print_string text;
    `Ok ()
  | Some path ->
    let oc = open_out path in
    output_string oc text;
    close_out oc;
    Printf.printf "written to: %s\n" path;
    `Ok ()

(* --- subcommands --- *)

(* A registry JSONL (results/registry.jsonl) is also line-oriented JSON
   but carries run records, not events; when the file parses as one,
   render the run table (including the schema-3 source_format column)
   instead of event analytics. *)
let registry_summary path =
  match Abonn_trace.Registry.load ~path () with
  | [], _ -> None
  | records, errors ->
    let rows =
      List.map
        (fun (r : Abonn_trace.Registry.record) ->
          [ r.Abonn_trace.Registry.engine; r.model; r.instance;
            string_of_int r.domains; r.source_format; r.verdict;
            Printf.sprintf "%.3f" r.wall; string_of_int r.calls;
            string_of_int r.nodes; string_of_int r.max_depth ])
        records
    in
    let table =
      Abonn_util.Table.render
        ~align:
          Abonn_util.Table.
            [ Left; Left; Left; Right; Left; Left; Right; Right; Right; Right ]
        ~header:
          [ "engine"; "model"; "instance"; "dom"; "source"; "verdict"; "wall";
            "calls"; "nodes"; "depth" ]
        rows
    in
    let footer =
      Printf.sprintf "\n%d record(s)%s\n" (List.length records)
        (if errors = [] then ""
         else Printf.sprintf ", %d unparseable line(s)" (List.length errors))
    in
    Some (table ^ footer)

let summary_cmd =
  let run file =
    match registry_summary file with
    | Some text ->
      print_string text;
      `Ok ()
    | None ->
      with_events file (fun events ->
          print_string (Summary.to_string (Summary.runs events));
          `Ok ())
  in
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE") in
  Cmd.v
    (Cmd.info "summary"
       ~doc:
         "Per-run statistics reconstructed from the trace: engine, verdict, AppVer \
          calls, nodes, max depth, wall time.  Harness traces are cross-checked \
          against their run_finished ground truth.  Run-registry files \
          (results/registry.jsonl) are detected and rendered as a run table \
          with their source format.")
    Term.(ret (const run $ file))

let run_arg =
  Arg.(value & opt int 1
       & info [ "run" ] ~docv:"N" ~doc:"Analyse the N-th run of a multi-run trace.")

let out_arg =
  Arg.(value & opt (some string) None
       & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write to FILE instead of stdout.")

let tree_cmd =
  let run file run_n dot max_nodes out =
    with_segment file run_n (fun seg ->
        let t = Tree.build seg in
        let text =
          match t.Tree.root with
          | Some root ->
            Tree.shape_to_string t.Tree.shape
            ^ "\n"
            ^ (if dot then Tree.render_dot ~max_nodes root
               else Tree.render_ascii ~max_nodes root)
          | None ->
            Tree.shape_to_string t.Tree.shape
            ^ "(no gamma-bearing events: baseline traces only carry the depth profile)\n"
        in
        output_result out text)
  in
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE") in
  let dot =
    Arg.(value & flag & info [ "dot" ] ~doc:"Emit Graphviz DOT instead of ASCII.")
  in
  let max_nodes =
    Arg.(value & opt int 200
         & info [ "max-nodes" ] ~docv:"N" ~doc:"Stop rendering after N nodes.")
  in
  Cmd.v
    (Cmd.info "tree"
       ~doc:
         "Reconstruct the BaB tree from the trace's gamma strings and render it \
          (ASCII or Graphviz DOT), with shape statistics and a depth histogram.")
    Term.(ret (const run $ file $ run_arg $ dot $ max_nodes $ out_arg))

let phases_cmd =
  let run file run_n =
    with_segment file run_n (fun seg ->
        print_string (Phases.to_string (Phases.of_events seg));
        `Ok ())
  in
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE") in
  Cmd.v
    (Cmd.info "phases"
       ~doc:
         "Attribute the run's wall time to AppVer bound computations, exact LP \
          solves, attacks and search overhead.")
    Term.(ret (const run $ file $ run_arg))

let curve_cmd =
  let run file run_n out =
    with_segment file run_n (fun seg ->
        output_result out (Curve.to_csv (Curve.of_events seg)))
  in
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE") in
  Cmd.v
    (Cmd.info "curve"
       ~doc:
         "Anytime-progress curve as CSV: calls, nodes, max depth, frontier size and \
          best reward against trace time.")
    Term.(ret (const run $ file $ run_arg $ out_arg))

let diff_cmd =
  let run file_a file_b =
    match load file_a, load file_b with
    | Error msg, _ | _, Error msg -> `Error (false, msg)
    | Ok (ea, ia), Ok (eb, ib) ->
      print_issues ia;
      print_issues ib;
      let d = Diff.diff ea eb in
      print_string
        (Diff.to_string
           ~label_a:(Filename.remove_extension (Filename.basename file_a))
           ~label_b:(Filename.remove_extension (Filename.basename file_b))
           d);
      `Ok ()
  in
  let file_a = Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE_A") in
  let file_b = Arg.(required & pos 1 (some file) None & info [] ~docv:"TRACE_B") in
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Compare two traces of the same instance (e.g. ABONN vs BaB-baseline): \
          nodes-to-verdict, visit-sequence divergence and per-phase deltas.")
    Term.(ret (const run $ file_a $ file_b))

let explain_cmd =
  let run file run_n vs vs_run =
    with_segment file run_n (fun seg ->
        match vs with
        | None ->
          print_string (Explain.to_string (Explain.of_events seg));
          `Ok ()
        | Some vs_file ->
          with_events vs_file (fun vs_events ->
              match nth_segment vs_events vs_run with
              | Error msg -> `Error (false, msg)
              | Ok vs_seg ->
                print_string (Explain.to_string (Explain.of_events ~vs:vs_seg seg));
                `Ok ()))
  in
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE") in
  let vs =
    Arg.(value & opt (some file) None
         & info [ "vs" ] ~docv:"TRACE_B"
             ~doc:
               "Second trace of the same instance; adds a policy-divergence \
                section (common visit prefix, first divergence, visit-set \
                overlap).")
  in
  let vs_run =
    Arg.(value & opt int 1
         & info [ "vs-run" ] ~docv:"N"
             ~doc:"Run to take from the $(b,--vs) trace (default 1).")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Search-quality report: wasted-work fraction (nodes off the verdict \
          path), open-subtree share, per-depth exploration/exploitation balance \
          (from ucb_decision introspection events), reward-prediction error per \
          depth, and branching-decision margins.  With $(b,--vs), also where two \
          runs' visit orders diverge.")
    Term.(ret (const run $ file $ run_arg $ vs $ vs_run))

let hotspots_cmd =
  let run file run_n flame limit out =
    with_segment file run_n (fun seg ->
        let h = Hotspots.of_events seg in
        output_result out
          (if flame then Hotspots.to_flame h else Hotspots.to_string ~limit h))
  in
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE") in
  let flame =
    Arg.(value & flag
         & info [ "flame" ]
             ~doc:
               "Emit folded stacks (one $(i,engine;phase;depth;layer weight) \
                line per row, weights in microseconds) for flamegraph.pl, \
                inferno or speedscope instead of the ranked table.")
  in
  let limit =
    Arg.(value & opt int 30
         & info [ "limit" ] ~docv:"N" ~doc:"Show at most N table rows.")
  in
  Cmd.v
    (Cmd.info "hotspots"
       ~doc:
         "Wall-time hotspots ranked by phase x tree-depth x warm-start layer: \
          which bound computations, exact LP checks and attacks the time went \
          to, and at which depths the propagator ran cold.")
    Term.(ret (const run $ file $ run_arg $ flame $ limit $ out_arg))

(* --- watch: live monitor over a growing trace --- *)

let watch_cmd =
  let run file interval calls max_seconds once =
    (* the trace file usually appears moments after the watcher starts
       (writer opens it lazily); wait rather than racing the writer *)
    let deadline = Unix.gettimeofday () +. Float.max max_seconds 10.0 in
    let rec wait_open () =
      match Reader.tail_open file with
      | tail -> Ok tail
      | exception Sys_error msg ->
        if Unix.gettimeofday () > deadline then Error msg
        else begin
          ignore (Unix.select [] [] [] 0.2);
          wait_open ()
        end
    in
    match wait_open () with
    | Error msg -> `Error (false, msg)
    | Ok tail ->
      let m = Monitor.create () in
      let tty = Unix.isatty Unix.stdout in
      let started = Unix.gettimeofday () in
      let issues = ref [] in
      let draw () =
        if tty then print_string "\027[2J\027[H";
        print_string (Monitor.render ?calls_budget:calls m);
        if !issues <> [] then
          Printf.printf "\n%d trace issue(s); first: %s\n" (List.length !issues)
            (Reader.issue_to_string (List.hd (List.rev !issues)));
        flush stdout
      in
      let rec loop () =
        issues := !issues @ Reader.tail_poll tail ~f:(Monitor.feed m);
        draw ();
        let timed_out =
          max_seconds > 0.0 && Unix.gettimeofday () -. started >= max_seconds
        in
        if Monitor.finished m || once || timed_out then begin
          Reader.tail_close tail;
          if (not (Monitor.finished m)) && timed_out && not once then
            Printf.printf "\nwatch: --max-seconds elapsed before the run finished\n";
          `Ok ()
        end
        else begin
          ignore (Unix.select [] [] [] interval);
          loop ()
        end
      in
      loop ()
  in
  let file =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"TRACE" ~doc:"Trace file being written by a live run.")
  in
  let interval =
    Arg.(value & opt float 0.5
         & info [ "interval" ] ~docv:"SECONDS" ~doc:"Poll/refresh interval.")
  in
  let calls =
    Arg.(value & opt (some int) None
         & info [ "calls" ] ~docv:"N"
             ~doc:"The run's AppVer-call budget; enables the ETA line.")
  in
  let max_seconds =
    Arg.(value & opt float 0.0
         & info [ "max-seconds" ] ~docv:"SECONDS"
             ~doc:"Stop watching after this long (0 = until the run finishes).")
  in
  let once =
    Arg.(value & flag
         & info [ "once" ]
             ~doc:"Render a single snapshot of the trace so far and exit.")
  in
  Cmd.v
    (Cmd.info "watch"
       ~doc:
         "Live dashboard over a trace that is still being written: node \
          throughput, depth histogram, phase split, memory curve from \
          resource_sample events, and a budget ETA.  Exits when the traced run \
          finishes.")
    Term.(ret (const run $ file $ interval $ calls $ max_seconds $ once))

(* --- bench: performance regression gate --- *)

(* "SUFFIX:PCT" -> (suffix, max_pct), e.g. "flight:2" or "i16:5" *)
let overhead_conv =
  let parse s =
    match String.index_opt s ':' with
    | Some i when i > 0 && i < String.length s - 1 ->
      let suffix = String.sub s 0 i in
      let pct = String.sub s (i + 1) (String.length s - i - 1) in
      (match float_of_string_opt pct with
       | Some p when p >= 0.0 -> Ok (suffix, p)
       | _ -> Error (`Msg (Printf.sprintf "bad overhead bound %S" pct)))
    | _ -> Error (`Msg (Printf.sprintf "expected SUFFIX:PCT, got %S" s))
  in
  let print ppf (suffix, pct) = Format.fprintf ppf "%s:%g" suffix pct in
  Arg.conv (parse, print)

let bench_cmd =
  let run fresh against max_regress scale_baseline bench_exe keep overhead =
    let fresh_path, cleanup =
      match fresh with
      | Some path -> (path, fun () -> ())
      | None ->
        let tmp = Filename.temp_file "abonn_bench" ".json" in
        let cmd = Printf.sprintf "%s --json %s" (Filename.quote bench_exe) (Filename.quote tmp) in
        Printf.printf "running: %s\n%!" cmd;
        if Sys.command cmd <> 0 then begin
          Sys.remove tmp;
          prerr_endline "bench run failed";
          exit 2
        end;
        (tmp, fun () -> if not keep then Sys.remove tmp)
    in
    match (Regress.load_file against, Regress.load_file fresh_path) with
    | Error msg, _ | _, Error msg ->
      cleanup ();
      `Error (false, msg)
    | Ok baseline, Ok fresh ->
      let report =
        Regress.compare_benches ~scale_baseline ~max_regress ~baseline ~fresh ()
      in
      (match (baseline.Regress.commit, fresh.Regress.commit) with
       | Some b, Some f -> Printf.printf "baseline commit %s, fresh commit %s\n" b f
       | _ -> ());
      print_string (Regress.report_to_string ~max_regress report);
      let overhead_ok =
        List.for_all
          (fun (suffix, max_pct) ->
            let r = Regress.check_overhead ~suffix ~max_pct fresh in
            print_newline ();
            print_string (Regress.overhead_to_string r);
            r.Regress.overhead_ok)
          overhead
      in
      cleanup ();
      if report.Regress.ok && overhead_ok then `Ok () else exit 1
  in
  let fresh =
    Arg.(value & pos 0 (some file) None
         & info [] ~docv:"FRESH"
             ~doc:"Fresh bench JSON to gate.  Omitted: run $(b,--bench-exe) first.")
  in
  let against =
    Arg.(value & opt file "BENCH_bab_nodes.json"
         & info [ "against" ] ~docv:"BASELINE" ~doc:"Committed baseline JSON.")
  in
  let max_regress =
    Arg.(value & opt float 20.0
         & info [ "max-regress" ] ~docv:"PCT"
             ~doc:"Maximum tolerated throughput drop below the baseline, percent.")
  in
  let scale_baseline =
    Arg.(value & opt float 1.0
         & info [ "scale-baseline" ] ~docv:"FACTOR"
             ~doc:
               "Multiply baseline numbers first (CI uses 10 as a synthetic \
                must-fail check of the gate itself).")
  in
  let bench_exe =
    Arg.(value & opt string "_build/default/bench/bab_nodes.exe"
         & info [ "bench-exe" ] ~docv:"EXE"
             ~doc:"Bench binary to produce FRESH when it is not given.")
  in
  let keep =
    Arg.(value & flag
         & info [ "keep" ] ~doc:"Keep the temporary fresh-run JSON file.")
  in
  let overhead =
    Arg.(value & opt_all overhead_conv []
         & info [ "overhead" ] ~docv:"SUFFIX:PCT"
             ~doc:
               "Also gate instrumentation overhead inside the fresh file: every \
                $(i,name@SUFFIX) row must be within PCT percent of its \
                $(i,name) base row's throughput (repeatable, e.g. \
                $(b,--overhead flight:2 --overhead i16:5)).  Fails if no such \
                rows exist.")
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "Performance regression gate: compare a fresh bab_nodes bench run \
          against the committed baseline (per-instance cached nodes/sec, geomean \
          speedup, peak RSS columns) and exit non-zero if any instance drops more \
          than $(b,--max-regress) percent.")
    Term.(
      ret
        (const run $ fresh $ against $ max_regress $ scale_baseline $ bench_exe
         $ keep $ overhead))

(* --- report: campaign analytics over the run registry --- *)

let default_registries = function [] -> [ Registry.default_path ] | l -> l

(* Shared campaign ingestion: positioned issues to stderr; an empty or
   all-malformed registry is a positioned hard error, not a blank page. *)
let load_campaign registries =
  let registries = default_registries registries in
  match Campaign.load registries with
  | Error msg -> Error msg
  | Ok t ->
    List.iter
      (fun (i : Campaign.issue) -> prerr_endline i.Campaign.msg)
      t.Campaign.issues;
    if t.Campaign.issues <> [] then flush stderr;
    if t.Campaign.records = [] then
      Error
        (match t.Campaign.issues with
         | [] -> positioned (List.hd registries) "empty registry: no run records"
         | i :: _ ->
           positioned ~line:i.Campaign.line i.Campaign.file
             "no parseable run records (malformed or truncated beyond recovery)")
    else Ok t

let registries_opt_arg =
  Arg.(value & opt_all string []
       & info [ "registry" ] ~docv:"FILE"
           ~doc:
             "Registry JSONL file to ingest (repeatable; default \
              results/registry.jsonl).  Any mix of record schemas 1-3 is \
              accepted.")

let report_cmd =
  let run registries against commit fmt_s budget trace_base trace_head out =
    match Campaign.format_of_string fmt_s with
    | None ->
      `Error (true, Printf.sprintf "unknown --format %S (expected md, csv or svg)" fmt_s)
    | Some fmt ->
      (match load_campaign registries with
       | Error msg -> `Error (false, msg)
       | Ok t ->
         let trace_pair =
           match (trace_base, trace_head) with
           | None, None -> Ok None
           | Some _, None | None, Some _ ->
             Error "--trace-base and --trace-head must be given together"
           | Some base_path, Some head_path ->
             (match (load base_path, load head_path) with
              | Error msg, _ | _, Error msg -> Error msg
              | Ok (base, bi), Ok (head, hi) ->
                print_issues bi;
                print_issues hi;
                if base = [] then Error (positioned base_path "empty trace: no events")
                else if head = [] then
                  Error (positioned head_path "empty trace: no events")
                else Ok (Some (Campaign.trace_attribute ~base ~head)))
         in
         (match trace_pair with
          | Error msg -> `Error (false, msg)
          | Ok trace_pair ->
            (match Campaign.report ?against ?trace_pair ?budget:budget ?commit t fmt with
             | Error msg -> `Error (false, msg)
             | Ok text -> output_result out text)))
  in
  let against =
    Arg.(value & opt (some string) None
         & info [ "against" ] ~docv:"COMMIT"
             ~doc:
               "Attribute the head commit's changes against this base commit: \
                per-run wall-time deltas joined on (engine, model, instance, \
                seed, domains, source format), newly solved/unsolved counts.")
  in
  let commit =
    Arg.(value & opt (some string) None
         & info [ "commit" ] ~docv:"COMMIT"
             ~doc:"Report this commit's runs (default: the newest commit).")
  in
  let fmt =
    Arg.(value & opt string "md"
         & info [ "format" ] ~docv:"FMT"
             ~doc:
               "$(b,md) renders the full report (PAR-2, cactus quantiles, \
                engine x family matrix, cross-commit trend, attribution); \
                $(b,csv) and $(b,svg) render the cactus curves.")
  in
  let budget =
    Arg.(value & opt (some float) None
         & info [ "par-budget" ] ~docv:"SECONDS"
             ~doc:
               "PAR-2 budget (unsolved runs cost twice this).  Default: the \
                longest wall time in the selection, since the registry records \
                no per-run budget.")
  in
  let trace_base =
    Arg.(value & opt (some file) None
         & info [ "trace-base" ] ~docv:"TRACE"
             ~doc:
               "Base-commit trace of one instance; with $(b,--trace-head), adds \
                a phase-level attribution naming the dominant slower phase.")
  in
  let trace_head =
    Arg.(value & opt (some file) None
         & info [ "trace-head" ] ~docv:"TRACE" ~doc:"Head-commit trace paired with $(b,--trace-base).")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Campaign analytics over the run registry: solved-vs-time cactus \
          curves, PAR-2 scores, per-engine x per-family win/loss matrix, \
          cross-commit trends, and — with $(b,--against) — a \"why did this \
          commit get slower\" attribution.  Output is deterministic and \
          byte-stable, suitable for golden tests and CI artifacts.")
    Term.(
      ret
        (const run $ registries_opt_arg $ against $ commit $ fmt $ budget
         $ trace_base $ trace_head $ out_arg))

(* --- export: trace-event (Perfetto / chrome://tracing) exporter --- *)

let export_cmd =
  let run file perfetto out =
    if not perfetto then
      `Error (true, "export: no target format given (use --perfetto)")
    else with_events file (fun events -> output_result out (Perfetto.to_string events))
  in
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE") in
  let perfetto =
    Arg.(value & flag
         & info [ "perfetto" ]
             ~doc:
               "Chrome trace-event JSON: span events become duration slices, \
                domain tags become named thread tracks, resource_sample becomes \
                counter tracks.  Open in ui.perfetto.dev or chrome://tracing.")
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:
         "Convert a trace to an external viewer format.  Currently \
          $(b,--perfetto) (trace-event JSON for the Perfetto UI / \
          chrome://tracing / speedscope).")
    Term.(ret (const run $ file $ perfetto $ out_arg))

(* --- registry: inspect and maintain the run registry --- *)

let registry_files_arg =
  Arg.(value & pos_all string []
       & info [] ~docv:"FILE"
           ~doc:"Registry JSONL files (default results/registry.jsonl).")

let registry_ls_cmd =
  let run files =
    match load_campaign files with
    | Error msg -> `Error (false, msg)
    | Ok t ->
      let rows =
        List.map
          (fun (r : Registry.record) ->
            [ r.Registry.ts; r.commit; string_of_int r.schema; r.engine; r.model;
              r.instance; string_of_int r.domains; r.source_format; r.verdict;
              Printf.sprintf "%.3f" r.wall ])
          t.Campaign.records
      in
      print_string
        (Abonn_util.Table.render
           ~align:
             Abonn_util.Table.
               [ Left; Left; Right; Left; Left; Left; Right; Left; Left; Right ]
           ~header:
             [ "ts"; "commit"; "sch"; "engine"; "model"; "instance"; "dom";
               "source"; "verdict"; "wall" ]
           rows);
      Printf.printf "\n%d record(s), %d commit(s)\n"
        (List.length t.Campaign.records)
        (List.length (Campaign.commits t));
      `Ok ()
  in
  Cmd.v
    (Cmd.info "ls"
       ~doc:
         "List every registry record (all schemas) across the given files, \
          with append time, commit and source format.")
    Term.(ret (const run $ registry_files_arg))

let registry_lint_cmd =
  let run files gc =
    let files = default_registries files in
    match Registry.lint files with
    | exception Sys_error msg -> `Error (false, msg)
    | report ->
      print_string (Registry.lint_report_to_string report);
      if report.Registry.lines = 0 then
        `Error (false, positioned (List.hd files) "empty registry: no run records")
      else if gc then begin
        List.iter
          (fun f ->
            let kept, dropped = Registry.gc f in
            Printf.printf "%s: kept %d record(s), dropped %d line(s)\n" f kept dropped)
          files;
        `Ok ()
      end
      else if report.Registry.lint_issues = [] then `Ok ()
      else exit 1
  in
  let gc =
    Arg.(value & flag
         & info [ "gc" ]
             ~doc:
               "Dedup-compact each file in place: keep the first occurrence of \
                every distinct record with its original bytes, drop malformed \
                lines and later duplicates (atomic rewrite via a .tmp sibling).")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "One pass over any mix of schema-1/2/3 registry files reporting \
          malformed lines, duplicate records and records whose commit/ts \
          stamp is unusable for cross-commit joins.  Exits non-zero when \
          issues are found (unless $(b,--gc) repairs them).")
    Term.(ret (const run $ registry_files_arg $ gc))

let registry_cmd =
  Cmd.group
    (Cmd.info "registry"
       ~doc:
         "Inspect and maintain the append-only run registry \
          (results/registry.jsonl): $(b,ls) lists records, $(b,lint) reports \
          malformed/duplicate/unstamped lines and $(b,lint --gc) compacts.")
    [ registry_ls_cmd; registry_lint_cmd ]

let cmd =
  let doc = "analytics over ABONN JSONL traces" in
  Cmd.group (Cmd.info "abonn_trace" ~doc)
    [ summary_cmd; tree_cmd; phases_cmd; curve_cmd; diff_cmd; explain_cmd;
      hotspots_cmd; watch_cmd; bench_cmd; report_cmd; export_cmd; registry_cmd ]

let () = exit (Cmd.eval cmd)
