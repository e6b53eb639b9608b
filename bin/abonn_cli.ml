(* abonn: verify a local-robustness problem from the benchmark zoo.

   Examples:
     abonn --model mnist_l2 --index 3 --eps 0.02
     abonn --model cifar_base --index 0 --factor 1.1 --engine bab-baseline
     abonn --model mnist_l4 --index 1 --factor 1.2 --lambda 0.7 --c 0.5
     abonn --model mnist_l2 --index 3 --trace out.jsonl --stats *)

open Cmdliner
module Models = Abonn_data.Models
module Instances = Abonn_data.Instances
module Synth = Abonn_data.Synth
module Trainer = Abonn_nn.Trainer
module Budget = Abonn_util.Budget
module Result = Abonn_bab.Result
module Verdict = Abonn_spec.Verdict
module Obs = Abonn_obs.Obs
module Sink = Abonn_obs.Sink
module Metrics = Abonn_obs.Metrics
module Introspect = Abonn_obs.Introspect
module Registry = Abonn_trace.Registry
module Appver = Abonn_prop.Appver
module Branching = Abonn_bab.Branching

type engine = Abonn | Bab_baseline | Bestfirst | Inputsplit | Ab_crown

let engines =
  [ ("abonn", Abonn); ("bab-baseline", Bab_baseline); ("bestfirst", Bestfirst);
    ("inputsplit", Inputsplit); ("ab-crown", Ab_crown) ]

let engine_name e = fst (List.find (fun (_, e') -> e' = e) engines)

let build_problem trained index eps factor =
  let dataset = trained.Models.dataset in
  let samples = dataset.Synth.test in
  if index < 0 || index >= Array.length samples then
    `Error (false, Printf.sprintf "--index must be in [0, %d)" (Array.length samples))
  else begin
    let sample = samples.(index) in
    let center = sample.Trainer.features in
    let label = sample.Trainer.label in
    if Abonn_nn.Network.predict trained.Models.network center <> label then
      `Error (false, Printf.sprintf "test image %d is misclassified; pick another" index)
    else begin
      let affine = Abonn_nn.Affine.of_network trained.Models.network in
      let num_classes = dataset.Synth.num_classes in
      let eps =
        match eps with
        | Some e -> e
        | None ->
          let r = Instances.certified_radius ~affine ~center ~label ~num_classes in
          r *. factor
      in
      let region = Abonn_spec.Region.linf_ball ~clip:(0.0, 1.0) ~center ~eps () in
      let property = Abonn_spec.Property.robustness ~num_classes ~label in
      `Ok (Abonn_spec.Problem.of_affine ~affine ~region ~property (), eps)
    end
  end

(* Install the requested observability around [f]: a JSONL sink for
   [--trace FILE], a live heartbeat for [--progress], the metrics
   registry for [--stats] and the always-on flight recorder.  Sinks are
   removed and closed even if [f] raises; printing the [--stats]
   summary is left to the caller (after the verdict lines). *)
let with_observability ~trace_file ~progress ~stats ~flight f =
  let sinks =
    List.filter_map Fun.id
      [ Option.map Sink.jsonl_file trace_file;
        Option.map (fun every -> Abonn_trace.Monitor.progress ~every ()) progress;
        Option.map fst flight ]
  in
  if stats then begin
    Metrics.reset ();
    Metrics.set_enabled true
  end;
  List.iter Obs.install sinks;
  let finally () =
    List.iter
      (fun s ->
        Obs.remove s;
        s.Sink.close ())
      sinks
  in
  Fun.protect ~finally f

(* The flight recorder keeps the last few thousand events in memory at
   all times; on SIGINT/SIGTERM or a timeout verdict the ring is dumped
   to JSONL so there is something to debug post-mortem even when the
   run had no [--trace].  Dumping from the signal handler is safe: the
   ring holds immutable, already-stamped envelopes. *)
let install_flight_handlers (_, fl) path =
  let dump_and_exit signal_name code _ =
    (try Sink.flight_dump fl path with _ -> ());
    Printf.eprintf "\n%s: flight recorder dumped to %s\n%!" signal_name path;
    exit code
  in
  (try Sys.set_signal Sys.sigint (Sys.Signal_handle (dump_and_exit "SIGINT" 130))
   with Invalid_argument _ | Sys_error _ -> ());
  try Sys.set_signal Sys.sigterm (Sys.Signal_handle (dump_and_exit "SIGTERM" 143))
  with Invalid_argument _ | Sys_error _ -> ()

let restore_default_handlers () =
  (try Sys.set_signal Sys.sigint Sys.Signal_default
   with Invalid_argument _ | Sys_error _ -> ());
  try Sys.set_signal Sys.sigterm Sys.Signal_default
  with Invalid_argument _ | Sys_error _ -> ()

(* Run one problem through the selected engine with the requested
   observability and print the verdict block.  Returns the engine
   result; registry bookkeeping is left to the callers (a VNNLIB spec
   appends one joined record for several of these runs). *)
let verify_core problem engine lambda c heuristic appver calls seconds trace_file
    progress stats no_cache domains introspect flight_path lp_triage
    ~context =
  (* --lp-triage: cheap DeepPoly bounds on every node, LP only for the
     nodes that survive the escalation criterion (DESIGN.md §13) *)
  let appver =
    match lp_triage with
    | Some crit ->
      Appver.triaged ~crit ~cheap:Appver.deeppoly ~expensive:Abonn_lp.Lp_verifier.appver ()
    | None -> appver
  in
  (* --no-bound-cache: the same AppVer without its warm entry point, so
     every node is bounded from scratch *)
  let appver = if no_cache then { appver with Appver.warm = None } else appver in
  let budget = Budget.combine ~calls ?seconds () in
  Introspect.set introspect;
  let flight = Option.map (fun _ -> Sink.flight ()) flight_path in
  (match (flight, flight_path) with
   | Some fl, Some path -> install_flight_handlers fl path
   | _ -> ());
  match
    with_observability ~trace_file ~progress ~stats ~flight (fun () ->
        match engine with
        | Abonn ->
          let config = Abonn_core.Config.make ~lambda ~c ~appver ~heuristic () in
          Abonn_core.Abonn.verify ~config ~budget ~domains problem
        | Bab_baseline -> Abonn_bab.Bfs.verify ~appver ~heuristic ~budget ~domains problem
        | Bestfirst ->
          Abonn_bab.Bestfirst.verify ~appver ~heuristic ~budget ~domains problem
        | Inputsplit -> Abonn_bab.Inputsplit.verify ~appver ~budget ~domains problem
        | Ab_crown -> Abonn_crown.Alphabeta.verify ~appver ~budget ~domains problem)
  with
  | exception Sys_error msg ->
    restore_default_handlers ();
    Error msg
  | result ->
  restore_default_handlers ();
  (* post-mortem dump on budget exhaustion: a timed-out run is exactly
     the one whose tail of events is worth inspecting *)
  (match (result.Result.verdict, flight, flight_path) with
   | Verdict.Timeout, Some (_, fl), Some path ->
     Sink.flight_dump fl path;
     Printf.printf "flight recorder dumped to: %s (budget exhausted)\n" path
   | _ -> ());
  Printf.printf "%s engine=%s\n" context (engine_name engine);
  Printf.printf "verdict: %s\n" (Verdict.to_string result.Result.verdict);
  Printf.printf "appver calls: %d\n" result.Result.stats.Result.appver_calls;
  Printf.printf "tree nodes:   %d (max depth %d)\n" result.Result.stats.Result.nodes
    result.Result.stats.Result.max_depth;
  Printf.printf "wall time:    %.3fs\n" result.Result.stats.Result.wall_time;
  (match Verdict.counterexample result.Result.verdict with
   | Some x ->
     let margin = Abonn_spec.Problem.concrete_margin problem x in
     Printf.printf "counterexample margin: %.6f (<= 0 confirms violation)\n" margin
   | None -> ());
  Option.iter (Printf.printf "trace written to: %s\n") trace_file;
  if stats then begin
    print_newline ();
    print_string (Abonn_harness.Report.stats (Metrics.snapshot ()));
    Metrics.set_enabled false
  end;
  Ok result

let append_registry registry ~domains ~engine ~model ~instance ~source_format
    ~verdict ~wall ~calls ~nodes ~max_depth =
  Option.iter
    (fun path ->
      Registry.append ~path
        (Registry.make ~domains ~engine:(engine_name engine) ~model ~instance ~seed:0
           ~source_format ~verdict ~wall ~calls ~nodes ~max_depth ());
      Printf.printf "registry record appended to: %s\n" path)
    registry

let verify_problem problem engine lambda c heuristic appver calls seconds trace_file
    progress stats no_cache registry domains introspect flight_path lp_triage
    ~model ~instance ~context ~source_format =
  match
    verify_core problem engine lambda c heuristic appver calls seconds trace_file
      progress stats no_cache domains introspect flight_path lp_triage
      ~context
  with
  | Error msg -> `Error (false, msg)
  | Ok result ->
    append_registry registry ~domains ~engine ~model ~instance ~source_format
      ~verdict:(Verdict.to_string result.Result.verdict)
      ~wall:result.Result.stats.Result.wall_time
      ~calls:result.Result.stats.Result.appver_calls
      ~nodes:result.Result.stats.Result.nodes
      ~max_depth:result.Result.stats.Result.max_depth;
    `Ok ()

(* An ONNX+VNNLIB pair: one BaB run per violation disjunct, stopping
   early at the first counterexample, then the DNF verdict join
   (Abonn_spec.Vnnlib).  One registry record summarises the whole spec
   (summed cost, joined verdict, source_format = "onnx+vnnlib"). *)
let verify_spec problems engine lambda c heuristic appver calls seconds trace_file
    progress stats no_cache registry domains introspect flight_path lp_triage
    ~model ~instance ~context =
  let total = List.length problems in
  let rec go i acc = function
    | [] -> Ok (List.rev acc)
    | problem :: rest -> (
      match
        verify_core problem engine lambda c heuristic appver calls seconds
          trace_file progress stats no_cache domains introspect flight_path
          lp_triage
          ~context:(Printf.sprintf "%s disjunct=%d/%d" context (i + 1) total)
      with
      | Error msg -> Error msg
      | Ok result ->
        let acc = result :: acc in
        if Verdict.is_falsified result.Result.verdict then Ok (List.rev acc)
        else go (i + 1) acc rest)
  in
  match go 0 [] problems with
  | Error msg -> `Error (false, msg)
  | Ok results ->
    let verdicts = List.map (fun r -> r.Result.verdict) results in
    let joined = Abonn_spec.Vnnlib.join_verdicts verdicts in
    let sum f = List.fold_left (fun acc r -> acc + f r.Result.stats) 0 results in
    let wall =
      List.fold_left (fun acc r -> acc +. r.Result.stats.Result.wall_time) 0.0 results
    in
    if total > 1 then
      Printf.printf "joined verdict: %s (%d/%d disjuncts run)\n"
        (Verdict.to_string joined) (List.length results) total;
    append_registry registry ~domains ~engine ~model ~instance
      ~source_format:"onnx+vnnlib" ~verdict:(Verdict.to_string joined) ~wall
      ~calls:(sum (fun s -> s.Result.appver_calls))
      ~nodes:(sum (fun s -> s.Result.nodes))
      ~max_depth:
        (List.fold_left
           (fun acc r -> max acc r.Result.stats.Result.max_depth)
           0 results);
    `Ok ()

let run problem_file onnx_file vnnlib_file model_name index eps factor engine lambda c
    heuristic appver calls seconds models_dir trace_file progress stats no_cache
    registry domains introspect flight no_flight lp_triage =
  let flight_path = if no_flight then None else Some flight in
  try
    match (problem_file, onnx_file, vnnlib_file) with
    | Some _, Some _, _ | Some _, _, Some _ ->
      `Error (true, "--problem and --onnx/--vnnlib are mutually exclusive")
    | None, Some _, None | None, None, Some _ ->
      `Error (true, "--onnx and --vnnlib must be given together")
    | Some path, None, None ->
      let problem = Abonn_spec.Problem_file.load path in
      verify_problem problem engine lambda c heuristic appver calls seconds trace_file
        progress stats no_cache registry domains introspect flight_path lp_triage
        ~model:"problem-file"
        ~instance:(Filename.basename path)
        ~context:(Printf.sprintf "problem=%s" path)
        ~source_format:"native"
    | None, Some onnx_path, Some vnnlib_path ->
      let network = Abonn_nn.Onnx.load onnx_path in
      let spec = Abonn_spec.Vnnlib.load ~network vnnlib_path in
      let name = Filename.remove_extension (Filename.basename vnnlib_path) in
      let problems = Abonn_spec.Vnnlib.problems ~name ~network spec in
      verify_spec problems engine lambda c heuristic appver calls seconds trace_file
        progress stats no_cache registry domains introspect flight_path lp_triage
        ~model:(Filename.basename onnx_path)
        ~instance:(Filename.basename vnnlib_path)
        ~context:(Printf.sprintf "onnx=%s vnnlib=%s" onnx_path vnnlib_path)
    | None, None, None -> (
      match Models.find model_name with
      | None ->
        `Error
          (false,
           Printf.sprintf "unknown model %s (try: %s)" model_name
             (String.concat ", " (List.map (fun s -> s.Models.name) Models.all)))
      | Some spec ->
        let trained = Models.train_cached ~dir:models_dir spec in
        (match build_problem trained index eps factor with
         | `Error _ as e -> e
         | `Ok (problem, eps) ->
           verify_problem problem engine lambda c heuristic appver calls seconds
             trace_file progress stats no_cache registry domains introspect
             flight_path lp_triage ~model:model_name
             ~instance:(Printf.sprintf "index%d_eps%.5g" index eps)
             ~context:(Printf.sprintf "model=%s index=%d eps=%.5f" model_name index eps)
             ~source_format:"synthetic"))
  with
  | Abonn_util.Parse_error.Error e ->
    `Error (false, Abonn_util.Parse_error.to_string e)
  | Sys_error msg | Invalid_argument msg -> `Error (false, msg)

let problem_arg =
  Arg.(value & opt (some string) None
       & info [ "problem" ] ~docv:"FILE"
           ~doc:"Verify a problem file (see Abonn_spec.Problem_file) instead of a zoo model.")

let onnx_arg =
  Arg.(value & opt (some string) None
       & info [ "onnx" ] ~docv:"FILE"
           ~doc:"ONNX network to verify (requires --vnnlib; see docs/FORMATS.md for \
                 the supported operator subset).")

let vnnlib_arg =
  Arg.(value & opt (some string) None
       & info [ "vnnlib" ] ~docv:"FILE"
           ~doc:"VNNLIB property for --onnx: input box plus a DNF of output \
                 constraints; one BaB run per disjunct, verdicts joined \
                 (docs/FORMATS.md).")

let model_arg =
  Arg.(value & opt string "mnist_l2" & info [ "model" ] ~docv:"NAME" ~doc:"Benchmark model.")

let index_arg =
  Arg.(value & opt int 0 & info [ "index" ] ~docv:"I" ~doc:"Test-image index.")

let eps_arg =
  Arg.(value & opt (some float) None & info [ "eps" ] ~docv:"E" ~doc:"Perturbation radius.")

let factor_arg =
  Arg.(value & opt float 1.1
       & info [ "factor" ] ~docv:"F"
           ~doc:"Radius as a multiple of the certified radius (used when --eps is absent).")

let engine_arg =
  Arg.(value & opt (enum engines) Abonn
       & info [ "engine" ] ~docv:"ENGINE" ~doc:("The engine: " ^ doc_alts_enum engines ^ "."))

let lambda_arg =
  Arg.(value & opt float 0.5 & info [ "lambda" ] ~docv:"L" ~doc:"Def. 1 depth weight.")

let c_arg =
  Arg.(value & opt float 0.2 & info [ "c" ] ~docv:"C" ~doc:"UCB1 exploration constant.")

(* An enum over named values.  [Arg.enum] compares its values with
   [Stdlib.compare], and AppVers and heuristics hold closures, so the
   enum runs over the names and each name maps back to its value. *)
let named_arg option ~docv ~what ~name ~default values =
  let names = List.map (fun v -> (name v, name v)) values in
  let parse s =
    Stdlib.Result.map
      (fun n -> List.find (fun v -> name v = n) values)
      (Arg.conv_parser (Arg.enum names) s)
  in
  let named = Arg.conv (parse, fun ppf v -> Format.pp_print_string ppf (name v)) in
  Arg.(value & opt named default
       & info [ option ] ~docv ~doc:(what ^ ": " ^ doc_alts_enum names ^ "."))

let heuristic_arg =
  named_arg "heuristic" ~docv:"H" ~what:"The branching heuristic"
    ~name:(fun h -> h.Branching.name) ~default:Branching.default Branching.all

let appver_arg =
  named_arg "appver" ~docv:"V" ~what:"The AppVer bounding every node"
    ~name:(fun v -> v.Appver.name) ~default:Appver.deeppoly Abonn_lp.Lp_verifier.all

let calls_arg =
  Arg.(value & opt int 2000 & info [ "calls" ] ~docv:"N" ~doc:"AppVer-call budget.")

let seconds_arg =
  Arg.(value & opt (some float) None & info [ "timeout" ] ~docv:"S" ~doc:"Wall-clock budget.")

let models_dir_arg =
  Arg.(value & opt string "models" & info [ "models-dir" ] ~docv:"DIR" ~doc:"Weight cache.")

let trace_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Write a JSONL trace of the run (schema: docs/TRACE_SCHEMA.md).")

let progress_arg =
  Arg.(value & opt ~vopt:(Some 2.0) (some float) None
       & info [ "progress" ] ~docv:"SECS"
           ~doc:"Print a live single-line heartbeat (elapsed, calls, nodes, depth, best \
                 reward) to stderr, refreshed every $(docv) seconds (default 2).")

let stats_arg =
  Arg.(value & flag
       & info [ "stats" ]
           ~doc:"Print per-subsystem counters, timers and histograms after the run.")

let no_cache_arg =
  Arg.(value & flag
       & info [ "no-bound-cache" ]
           ~doc:"Disable incremental (warm-started) bound propagation: the engine gets \
                 the AppVer without its warm entry point, so every BaB node recomputes \
                 its bounds from scratch.")

let domains_arg =
  Arg.(value & opt int (Abonn_par.Pool.default_domains ())
       & info [ "domains" ] ~docv:"N"
           ~doc:"Worker domains for the BaB search (default 1).  With 1 the engine is \
                 the sequential one, bit-for-bit; with more, the frontier is sharded \
                 across a work-stealing pool of OCaml 5 domains — verdicts of complete \
                 runs are unchanged, exploration order is not (docs/PARALLELISM.md).  \
                 The ABONN_DOMAINS environment variable sets the library-level default \
                 but this flag wins.")

(* "1/16" or "16" -> every 16th decision; "1" -> every decision *)
let introspect_conv =
  let parse s =
    let rate =
      match String.index_opt s '/' with
      | Some i ->
        (match
           ( int_of_string_opt (String.sub s 0 i),
             int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) )
         with
         | Some 1, Some d when d >= 1 -> Some d
         | _ -> None)
      | None -> (match int_of_string_opt s with Some n when n >= 1 -> Some n | _ -> None)
    in
    match rate with
    | Some n -> Ok n
    | None -> Error (`Msg (Printf.sprintf "expected 1/N or N (got %S)" s))
  in
  let print ppf n = Format.fprintf ppf "1/%d" n in
  Arg.conv (parse, print)

let introspect_arg =
  Arg.(value & opt ~vopt:(Some 1) (some introspect_conv) None
       & info [ "introspect" ] ~docv:"RATE"
           ~doc:"Record search-policy decision events in the trace: UCB \
                 exploitation/exploration terms of both children at every ABONN \
                 selection, branching-heuristic winner vs runner-up scores, and \
                 frontier priorities.  $(docv) is a sampling rate — $(b,1/16) (or \
                 $(b,16)) records every 16th decision, bare $(b,--introspect) \
                 records every one.  Off by default; never changes the search \
                 (DESIGN.md \xC2\xA712).")

let flight_arg =
  Arg.(value & opt string (Filename.concat "results" "flight.jsonl")
       & info [ "flight" ] ~docv:"FILE"
           ~doc:"Where the always-on flight recorder dumps its ring of recent \
                 events when the run is interrupted (SIGINT/SIGTERM) or times \
                 out (default results/flight.jsonl, readable by every \
                 abonn_trace command).")

let no_flight_arg =
  Arg.(value & flag
       & info [ "no-flight" ]
           ~doc:"Disable the flight recorder entirely (no ring buffer, no \
                 signal handlers).")

(* "lb=0.5,depth=3,impr=0.1,window=32" -> a triage criterion; every key
   is optional and defaults to Appver.default_triage *)
let triage_conv =
  let parse s =
    let crit = ref Abonn_prop.Appver.default_triage in
    let bad = ref None in
    if String.trim s <> "" then
      List.iter
        (fun kv ->
          match String.index_opt kv '=' with
          | Some i ->
            let k = String.sub kv 0 i in
            let v = String.sub kv (i + 1) (String.length kv - i - 1) in
            (match (k, float_of_string_opt v, int_of_string_opt v) with
             | "lb", Some f, _ -> crit := { !crit with Abonn_prop.Appver.lb_threshold = f }
             | "impr", Some f, _ ->
               crit := { !crit with Abonn_prop.Appver.impr_threshold = f }
             | "depth", _, Some n ->
               crit := { !crit with Abonn_prop.Appver.depth_threshold = n }
             | "window", _, Some n when n >= 1 ->
               crit := { !crit with Abonn_prop.Appver.window = n }
             | _ -> bad := Some kv)
          | None -> bad := Some kv)
        (String.split_on_char ',' s);
    match !bad with
    | None -> Ok !crit
    | Some kv ->
      Error
        (`Msg
           (Printf.sprintf
              "bad triage field %S (expected lb=F, depth=N, impr=F or window=N)" kv))
  in
  let print ppf (c : Abonn_prop.Appver.triage_crit) =
    Format.fprintf ppf "lb=%g,depth=%d,impr=%g,window=%d"
      c.Abonn_prop.Appver.lb_threshold c.Abonn_prop.Appver.depth_threshold
      c.Abonn_prop.Appver.impr_threshold c.Abonn_prop.Appver.window
  in
  Arg.conv (parse, print)

let lp_triage_arg =
  Arg.(value
       & opt ~vopt:(Some Abonn_prop.Appver.default_triage) (some triage_conv) None
       & info [ "lp-triage" ] ~docv:"SPEC"
           ~doc:"Bound every node with DeepPoly first and escalate to the LP \
                 verifier only for nodes that survive the criterion (overrides \
                 --appver): undecided with phat >= -lb, at depth >= depth, and \
                 while escalations keep tightening by >= impr on average over a \
                 window.  $(docv) is a comma list of lb=F, depth=N, impr=F, \
                 window=N; bare $(b,--lp-triage) uses lb=0.5, depth=0, impr=0.1, \
                 window=32 (DESIGN.md \xC2\xA713).")

let registry_arg =
  Arg.(value & opt ~vopt:(Some Registry.default_path) (some string) None
       & info [ "registry" ] ~docv:"FILE"
           ~doc:"Append one run-registry record (model, engine, verdict, wall, nodes, \
                 peak RSS, commit) to $(docv) after the run (default \
                 results/registry.jsonl).")

let cmd =
  let doc = "ABONN: adaptive branch-and-bound neural-network verification" in
  Cmd.v
    (Cmd.info "abonn" ~doc)
    Term.(
      ret
        (const run $ problem_arg $ onnx_arg $ vnnlib_arg $ model_arg $ index_arg
         $ eps_arg $ factor_arg $ engine_arg
         $ lambda_arg $ c_arg $ heuristic_arg $ appver_arg $ calls_arg $ seconds_arg
         $ models_dir_arg $ trace_arg $ progress_arg $ stats_arg $ no_cache_arg
         $ registry_arg $ domains_arg $ introspect_arg $ flight_arg $ no_flight_arg
         $ lp_triage_arg))

let () = exit (Cmd.eval cmd)
