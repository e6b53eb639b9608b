(* Tests for Abonn_trace: streaming reader with malformed-line recovery
   and envelope validation, BaB-tree reconstruction, phase attribution,
   anytime curves, per-run summaries and trace diff — against a
   hand-written golden fixture with known shape and totals, and against
   fresh engine runs (the summary must reproduce the engine's own
   statistics exactly). *)

module Rng = Abonn_util.Rng
module Budget = Abonn_util.Budget
module Region = Abonn_spec.Region
module Property = Abonn_spec.Property
module Verdict = Abonn_spec.Verdict
module Problem = Abonn_spec.Problem
module Network = Abonn_nn.Network
module Builder = Abonn_nn.Builder
module Result = Abonn_bab.Result
module Event = Abonn_obs.Event
module Sink = Abonn_obs.Sink
module Obs = Abonn_obs.Obs
module Reader = Abonn_trace.Reader
module Tree = Abonn_trace.Tree
module Phases = Abonn_trace.Phases
module Curve = Abonn_trace.Curve
module Summary = Abonn_trace.Summary
module Diff = Abonn_trace.Diff

let check_float = Alcotest.(check (float 1e-9))

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

let count ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i acc =
    if i + n > m then acc
    else go (i + 1) (if String.sub s i n = affix then acc + 1 else acc)
  in
  if n = 0 then 0 else go 0 0

let check_contains what affix s =
  Alcotest.(check bool) what true (contains ~affix s)

let golden = "fixtures/golden.jsonl"
let golden_cached = "fixtures/golden_cached.jsonl"
let malformed = "fixtures/malformed.jsonl"

let read_clean path =
  let events, issues = Reader.read_file path in
  Alcotest.(check (list string)) (path ^ " has no issues") []
    (List.map Reader.issue_to_string issues);
  events

(* --- reader --- *)

let test_reader_golden () =
  let events = read_clean golden in
  Alcotest.(check int) "all events" 18 (List.length events);
  let seqs = List.map (fun e -> e.Event.seq) events in
  Alcotest.(check (list int)) "seqs in order" (List.init 18 (fun i -> i + 1)) seqs

let test_reader_recovery () =
  let events, issues = Reader.read_file malformed in
  Alcotest.(check int) "good events survive" 5 (List.length events);
  let malformed_lines =
    List.filter_map
      (function Reader.Malformed { line; _ } -> Some line | _ -> None)
      issues
  in
  Alcotest.(check (list int)) "malformed lines" [ 3; 4 ] malformed_lines;
  (match
     List.find_opt (function Reader.Seq_gap _ -> true | _ -> false) issues
   with
   | Some (Reader.Seq_gap { line; expected; got }) ->
     Alcotest.(check int) "gap line" 5 line;
     Alcotest.(check int) "gap expected" 3 expected;
     Alcotest.(check int) "gap got" 5 got
   | _ -> Alcotest.fail "no seq gap reported");
  match
    List.find_opt (function Reader.Time_regression _ -> true | _ -> false) issues
  with
  | Some (Reader.Time_regression { line; _ }) ->
    Alcotest.(check int) "regression line" 6 line
  | _ -> Alcotest.fail "no time regression reported"

(* The cached golden trace is a real best-first run with the incremental
   bound cache on (dims [2;6;2], seed 0, 200-call budget): every
   non-root bound computation carries a bound_reuse annotation. *)
let test_reader_golden_cached () =
  let events = read_clean golden_cached in
  Alcotest.(check int) "all events" 109 (List.length events);
  let reuses =
    List.filter
      (fun e -> match e.Event.event with Event.Bound_reuse _ -> true | _ -> false)
      events
  in
  Alcotest.(check int) "bound_reuse events" 30 (List.length reuses);
  List.iter
    (fun e ->
      match e.Event.event with
      | Event.Bound_reuse r ->
        Alcotest.(check string) "appver" "deeppoly" r.appver;
        Alcotest.(check int) "layers_skipped mirrors from_layer" r.from_layer
          r.layers_skipped
      | _ -> ())
    reuses

let test_reader_missing_file () =
  match Reader.read_file "fixtures/does_not_exist.jsonl" with
  | exception Sys_error _ -> ()
  | _ -> Alcotest.fail "expected Sys_error"

(* --- tree --- *)

let test_tree_golden_shape () =
  let t = Tree.build (read_clean golden) in
  let s = t.Tree.shape in
  Alcotest.(check int) "nodes" 5 s.Tree.nodes;
  Alcotest.(check int) "max depth" 2 s.Tree.max_depth;
  Alcotest.(check (array int)) "depth histogram" [| 1; 2; 2 |] s.Tree.depth_counts;
  Alcotest.(check int) "interior" 2 s.Tree.interior;
  Alcotest.(check int) "proved leaves" 1 s.Tree.leaves_proved;
  Alcotest.(check int) "cex leaves" 1 s.Tree.leaves_cex;
  Alcotest.(check int) "open leaves" 1 s.Tree.leaves_open;
  Alcotest.(check int) "orphans" 0 s.Tree.orphans;
  match t.Tree.root with
  | None -> Alcotest.fail "no root"
  | Some root ->
    Alcotest.(check string) "root gamma" Tree.root_gamma root.Tree.gamma;
    Alcotest.(check int) "root children" 2 (List.length root.Tree.children);
    let first = List.hd root.Tree.children in
    Alcotest.(check string) "first child in eval order" "r1+" first.Tree.gamma;
    Alcotest.(check int) "grandchildren" 2 (List.length first.Tree.children)

let test_tree_renderings () =
  let t = Tree.build (read_clean golden) in
  let root = Option.get t.Tree.root in
  let ascii = Tree.render_ascii root in
  List.iter
    (fun token -> check_contains (token ^ " in ascii") token ascii)
    [ "r1+"; "r1-"; "r2+"; "r2-" ];
  let dot = Tree.render_dot root in
  check_contains "digraph" "digraph" dot;
  check_contains "cex colored" "salmon" dot;
  check_contains "proved colored" "palegreen" dot;
  (* 5 nodes, 4 edges *)
  Alcotest.(check int) "edges" 4 (count ~affix:" -> " dot)

let test_tree_truncation () =
  let t = Tree.build (read_clean golden) in
  let root = Option.get t.Tree.root in
  let ascii = Tree.render_ascii ~max_nodes:2 root in
  check_contains "ellipsis" "3 more nodes suppressed" ascii

let test_tree_baseline_profile_only () =
  (* frontier_pop-only traces have no gammas: depth profile, no root. *)
  let events =
    List.mapi
      (fun i depth ->
        { Event.seq = i + 1; t = float_of_int i /. 100.0; domain = None;
          event =
            Event.Frontier_pop
              { engine = "bab-baseline"; depth; frontier = 1; priority = Float.nan } })
      [ 0; 1; 1; 2 ]
  in
  let t = Tree.build events in
  Alcotest.(check bool) "no root" true (t.Tree.root = None);
  Alcotest.(check int) "nodes counted" 4 t.Tree.shape.Tree.nodes;
  Alcotest.(check (array int)) "depth histogram" [| 1; 2; 1 |]
    t.Tree.shape.Tree.depth_counts

(* --- phases --- *)

let test_phases_golden () =
  let p = Phases.of_events (read_clean golden) in
  check_float "wall" 0.07 p.Phases.wall;
  Alcotest.(check int) "appver calls" 5 p.Phases.appver_total.Phases.calls;
  check_float "appver total" 0.036 p.Phases.appver_total.Phases.total;
  Alcotest.(check int) "lp calls" 1 p.Phases.lp.Phases.calls;
  check_float "lp total" 0.002 p.Phases.lp.Phases.total;
  check_float "no lp inside appver" 0.0 p.Phases.lp_in_appver;
  (* pgd nests inside the best-effort window: top-level attack = best-effort only *)
  Alcotest.(check int) "top-level attacks" 1 p.Phases.attack_total.Phases.calls;
  check_float "attack total" 0.004 p.Phases.attack_total.Phases.total;
  check_float "overhead" (0.07 -. 0.036 -. 0.002 -. 0.004) p.Phases.overhead;
  check_contains "renders appver row" "appver.deeppoly" (Phases.to_string p)

let test_phases_lp_inside_appver () =
  (* An lp_solved whose window falls inside a bound_computed window is
     charged to AppVer, not double-charged to the LP phase. *)
  let env i t event = { Event.seq = i; t; domain = None; event } in
  let events =
    [ env 1 0.008
        (Event.Lp_solved { vars = 2; rows = 2; status = "optimal"; elapsed = 0.004 });
      env 2 0.010
        (Event.Bound_computed { appver = "lp"; depth = 0; phat = -0.1; elapsed = 0.006 });
      env 3 0.020
        (Event.Verdict_reached { engine = "abonn"; verdict = "timeout"; elapsed = 0.02 })
    ]
  in
  let p = Phases.of_events events in
  check_float "lp claimed by appver" 0.004 p.Phases.lp_in_appver;
  check_float "overhead excludes nested lp" (0.02 -. 0.006) p.Phases.overhead

(* --- curve --- *)

let test_curve_golden () =
  let points = Curve.of_events (read_clean golden) in
  (* 5 node_evaluated + 1 verdict_reached *)
  Alcotest.(check int) "points" 6 (List.length points);
  let last = List.nth points 5 in
  Alcotest.(check int) "calls" 5 last.Curve.calls;
  Alcotest.(check int) "nodes" 5 last.Curve.nodes;
  Alcotest.(check int) "max depth" 2 last.Curve.max_depth;
  Alcotest.(check int) "frontier = open leaves" 1 last.Curve.frontier;
  check_float "best reward is cex" infinity last.Curve.best_reward;
  let rec monotone = function
    | a :: (b :: _ as rest) ->
      Alcotest.(check bool) "t monotone" true (a.Curve.t <= b.Curve.t);
      monotone rest
    | _ -> ()
  in
  monotone points;
  let csv = Curve.to_csv points in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check int) "header + rows" 7 (List.length lines);
  Alcotest.(check string) "header" "t,seq,calls,nodes,max_depth,frontier,best_reward"
    (List.hd lines)

(* --- summary --- *)

let test_summary_golden () =
  match Summary.runs (read_clean golden) with
  | [ run ] ->
    Alcotest.(check string) "engine" "abonn" run.Summary.engine;
    Alcotest.(check (option string)) "verdict" (Some "falsified") run.Summary.verdict;
    Alcotest.(check int) "calls" 5 run.Summary.calls;
    Alcotest.(check int) "nodes" 5 run.Summary.nodes;
    Alcotest.(check int) "max depth" 2 run.Summary.max_depth;
    check_float "wall" 0.07 run.Summary.wall;
    Alcotest.(check int) "events" 18 run.Summary.events;
    Alcotest.(check bool) "consistent (nothing reported)" true (Summary.consistent run)
  | runs -> Alcotest.fail (Printf.sprintf "expected 1 run, got %d" (List.length runs))

(* bound_reuse is an annotation, not AppVer work: reconstruction over
   the cached golden trace must count exactly the bound_computed and
   exact_leaf events, reproducing the engine's own statistics with no
   MISMATCH. *)
let test_summary_golden_cached () =
  let events = read_clean golden_cached in
  (match Summary.runs events with
   | [ run ] ->
     Alcotest.(check string) "engine" "bestfirst" run.Summary.engine;
     Alcotest.(check (option string)) "verdict" (Some "verified") run.Summary.verdict;
     Alcotest.(check int) "calls = bound_computed + exact_leaf" 47 run.Summary.calls;
     Alcotest.(check int) "nodes = bound_computed" 31 run.Summary.nodes;
     Alcotest.(check int) "max depth" 4 run.Summary.max_depth;
     Alcotest.(check bool) "consistent" true (Summary.consistent run)
   | runs -> Alcotest.failf "expected 1 run, got %d" (List.length runs));
  let rendered = Summary.to_string (Summary.runs events) in
  Alcotest.(check bool) "no MISMATCH" false (contains ~affix:"MISMATCH" rendered)

let test_phases_golden_cached () =
  let p = Phases.of_events (read_clean golden_cached) in
  Alcotest.(check int) "appver calls = bound_computed" 31
    p.Phases.appver_total.Phases.calls;
  check_contains "renders appver row" "appver.deeppoly" (Phases.to_string p)

let test_summary_segments_harness_trace () =
  (* Two harness runs in one file; verdict_reached inside a
     run_started/run_finished bracket must not cut the segment. *)
  let env i t event = { Event.seq = i; t; domain = None; event } in
  let run_pair i t0 engine verdict =
    [ env i t0 (Event.Run_started { engine; instance = "inst" });
      env (i + 1) (t0 +. 0.001)
        (Event.Node_evaluated
           { engine; depth = 0; gamma = Tree.root_gamma; phat = -0.1; reward = 0.1 });
      env (i + 2) (t0 +. 0.002)
        (Event.Verdict_reached { engine; verdict; elapsed = 0.002 });
      env (i + 3) (t0 +. 0.003)
        (Event.Run_finished
           { engine; instance = "inst"; verdict; calls = 1; nodes = 1; max_depth = 0;
             wall = 0.003 })
    ]
  in
  let events = run_pair 1 0.0 "abonn" "verified" @ run_pair 5 1.0 "abonn" "timeout" in
  let runs = Summary.runs events in
  Alcotest.(check int) "two runs" 2 (List.length runs);
  List.iter
    (fun r ->
      Alcotest.(check (option string)) "instance" (Some "inst") r.Summary.instance;
      Alcotest.(check bool) "reported present" true (r.Summary.reported <> None);
      Alcotest.(check bool) "reconstruction matches report" true (Summary.consistent r))
    runs;
  Alcotest.(check (option string)) "first verdict" (Some "verified")
    (List.hd runs).Summary.verdict

let test_summary_composite_bracket () =
  (* A wrapper run (e.g. an abonn_fuzz case) whose bracket contains
     whole engine runs: reconstruction must flag it composite and take
     the row's statistics from the wrapper's report, not from the
     interior engines' events. *)
  let env i t event = { Event.seq = i; t; domain = None; event } in
  let events =
    [ env 1 0.0 (Event.Run_started { engine = "fuzz"; instance = "case-0" });
      env 2 0.001
        (Event.Node_evaluated
           { engine = "abonn"; depth = 1; gamma = Tree.root_gamma; phat = -0.1;
             reward = 0.1 });
      env 3 0.002
        (Event.Verdict_reached { engine = "abonn"; verdict = "falsified"; elapsed = 0.002 });
      env 4 0.003
        (Event.Verdict_reached
           { engine = "bab-baseline"; verdict = "verified"; elapsed = 0.001 });
      env 5 0.004
        (Event.Run_finished
           { engine = "fuzz"; instance = "case-0"; verdict = "pass"; calls = 5; nodes = 0;
             max_depth = 0; wall = 0.004 })
    ]
  in
  match Summary.runs events with
  | [ run ] ->
    Alcotest.(check bool) "composite" true run.Summary.composite;
    Alcotest.(check string) "engine is the bracket's" "fuzz" run.Summary.engine;
    Alcotest.(check (option string)) "verdict from report" (Some "pass")
      run.Summary.verdict;
    Alcotest.(check int) "calls from report" 5 run.Summary.calls;
    Alcotest.(check bool) "consistent (cross-check not applicable)" true
      (Summary.consistent run)
  | runs -> Alcotest.failf "expected one segment, got %d" (List.length runs)

(* --- summary vs a fresh engine run (the acceptance property) --- *)

let random_problem ?(seed = 0) ?(dims = [ 2; 6; 2 ]) ?(eps = 0.3) () =
  let rng = Rng.create seed in
  let net = Builder.mlp rng ~dims in
  let in_dim = List.hd dims in
  let center = Array.init in_dim (fun _ -> Rng.range rng (-0.5) 0.5) in
  let region = Region.linf_ball ~center ~eps () in
  let out_dim = List.nth dims (List.length dims - 1) in
  let label = Network.predict net center in
  let property = Property.robustness ~num_classes:out_dim ~label in
  Problem.create ~network:net ~region ~property ()

let traced_run verify =
  let path = Filename.temp_file "abonn_trace_test" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let sink = Sink.jsonl_file path in
  let result = Obs.with_sink sink verify in
  sink.Sink.close ();
  let events = read_clean path in
  (result, events)

let check_summary_matches ?engine name (result : Result.t) events =
  match Summary.runs events with
  | [ run ] ->
    Option.iter
      (fun e -> Alcotest.(check string) (name ^ " engine") e run.Summary.engine)
      engine;
    Alcotest.(check (option string)) (name ^ " verdict")
      (Some (Verdict.to_string result.Result.verdict))
      run.Summary.verdict;
    Alcotest.(check int) (name ^ " calls") result.Result.stats.Result.appver_calls
      run.Summary.calls;
    Alcotest.(check int) (name ^ " nodes") result.Result.stats.Result.nodes
      run.Summary.nodes;
    Alcotest.(check int) (name ^ " max depth") result.Result.stats.Result.max_depth
      run.Summary.max_depth
  | runs ->
    Alcotest.fail (Printf.sprintf "%s: expected 1 run, got %d" name (List.length runs))

let test_summary_reproduces_abonn_run () =
  List.iter
    (fun seed ->
      let problem = random_problem ~seed () in
      let result, events =
        traced_run (fun () ->
            Abonn_core.Abonn.verify ~budget:(Budget.of_calls 200) problem)
      in
      check_summary_matches (Printf.sprintf "abonn seed %d" seed) result events)
    [ 0; 1; 2; 3 ]

(* Pinned sequential: summary rebuilds bab-baseline node counts from a
   sequential event stream only (docs/PARALLELISM.md §3). *)
let test_summary_reproduces_bfs_run () =
  List.iter
    (fun seed ->
      let problem = random_problem ~seed () in
      let result, events =
        traced_run (fun () ->
            Abonn_bab.Bfs.verify ~budget:(Budget.of_calls 200) ~domains:1 problem)
      in
      check_summary_matches (Printf.sprintf "bfs seed %d" seed) result events)
    [ 0; 1; 2 ]

let test_summary_reproduces_bestfirst_run () =
  let problem = random_problem ~seed:1 () in
  let result, events =
    traced_run (fun () ->
        Abonn_bab.Bestfirst.verify ~budget:(Budget.of_calls 200) problem)
  in
  check_summary_matches "bestfirst" result events

(* A timed-out run whose last expansion split: the two children it
   created appear in no event after the last pop, only in the final
   resource sample — summary must still equal the engine's Result. *)
let check_timeout_summary ~engine verify () =
  let problem = random_problem ~seed:1 ~dims:[ 3; 6; 6; 6; 2 ] ~eps:0.5 () in
  let result, events =
    Abonn_obs.Introspect.with_rate (Some 1) (fun () ->
        traced_run (fun () -> verify ~budget:(Budget.of_calls 300) problem))
  in
  Alcotest.(check string) (engine ^ " times out") "timeout"
    (Verdict.to_string result.Result.verdict);
  let last p =
    snd
      (List.fold_left
         (fun (i, found) e -> (i + 1, if p e.Event.event then i else found))
         (0, -1) events)
  in
  let last_split = last (function Event.Branch_decision _ -> true | _ -> false) in
  let last_other =
    last (function Event.Frontier_pop _ | Event.Exact_leaf _ -> true | _ -> false)
  in
  Alcotest.(check bool) (engine ^ " last expansion split") true (last_split > last_other);
  check_summary_matches ~engine engine result events

let summary_timeout_cases =
  [ ( "exact on bfs timeout",
      check_timeout_summary ~engine:"bab-baseline" (fun ~budget p ->
          Abonn_bab.Bfs.verify ~budget ~domains:1 p) );
    ( "exact on bestfirst timeout",
      check_timeout_summary ~engine:"bestfirst" (fun ~budget p ->
          Abonn_bab.Bestfirst.verify ~budget ~domains:1 p) );
    ( "exact on abonn timeout",
      check_timeout_summary ~engine:"abonn" (fun ~budget p ->
          Abonn_core.Abonn.verify ~budget ~domains:1 p) );
    ( "exact on inputsplit timeout",
      check_timeout_summary ~engine:"inputsplit" (fun ~budget p ->
          Abonn_bab.Inputsplit.verify ~budget ~domains:1 p) ) ]

(* --- diff --- *)

let test_diff_self_is_neutral () =
  let events = read_clean golden in
  let d = Diff.diff events events in
  Alcotest.(check int) "same visits" d.Diff.visits_a d.Diff.visits_b;
  Alcotest.(check int) "full shared prefix" 5 d.Diff.shared_prefix;
  Alcotest.(check bool) "no divergence" true (d.Diff.divergence = None);
  check_contains "renders delta column" "delta" (Diff.to_string d)

let test_diff_abonn_vs_bfs () =
  let problem = random_problem ~seed:2 () in
  let _, abonn_events =
    traced_run (fun () -> Abonn_core.Abonn.verify ~budget:(Budget.of_calls 150) problem)
  in
  let _, bfs_events =
    traced_run (fun () -> Abonn_bab.Bfs.verify ~budget:(Budget.of_calls 150) problem)
  in
  let d = Diff.diff abonn_events bfs_events in
  (* Both engines start at the unsplit root, so depth-compared visit
     sequences share at least that first visit. *)
  Alcotest.(check bool) "shared prefix >= 1" true (d.Diff.shared_prefix >= 1);
  Alcotest.(check string) "engine a" "abonn" d.Diff.run_a.Summary.engine;
  Alcotest.(check string) "engine b" "bab-baseline" d.Diff.run_b.Summary.engine;
  let rendered = Diff.to_string ~label_a:"abonn" ~label_b:"bfs" d in
  check_contains "mentions label a" "abonn" rendered;
  check_contains "mentions label b" "bfs" rendered;
  check_contains "reports shared prefix" "shared visit prefix" rendered

(* The bound cache must not change what the search does, only what each
   bound computation costs: cached and uncached traces of the same
   instance agree on verdict and visit sequence, and the extra
   bound_reuse annotations are invisible to the visit comparison. *)
let test_diff_cached_vs_uncached () =
  let problem = random_problem ~seed:0 () in
  (* domains is pinned: diffing two scheduling-dependent parallel runs
     would make the no-divergence check flaky under ABONN_DOMAINS *)
  let run () =
    Abonn_bab.Bestfirst.verify ~budget:(Budget.of_calls 200) ~domains:1 problem
  in
  let r_on, cached =
    traced_run (fun () -> Abonn_prop.Incremental.with_enabled true run)
  in
  let r_off, uncached =
    traced_run (fun () -> Abonn_prop.Incremental.with_enabled false run)
  in
  Alcotest.(check string) "same verdict"
    (Verdict.to_string r_off.Result.verdict)
    (Verdict.to_string r_on.Result.verdict);
  Alcotest.(check bool) "cached trace has bound_reuse" true
    (List.exists
       (fun e -> match e.Event.event with Event.Bound_reuse _ -> true | _ -> false)
       cached);
  Alcotest.(check bool) "uncached trace has none" false
    (List.exists
       (fun e -> match e.Event.event with Event.Bound_reuse _ -> true | _ -> false)
       uncached);
  let d = Diff.diff cached uncached in
  Alcotest.(check int) "identical visit counts" d.Diff.visits_b d.Diff.visits_a;
  Alcotest.(check int) "identical calls" d.Diff.run_b.Summary.calls
    d.Diff.run_a.Summary.calls;
  Alcotest.(check bool) "no divergence" true (d.Diff.divergence = None)

(* --- progress sink --- *)

let test_progress_sink_heartbeat () =
  let path = Filename.temp_file "abonn_progress" ".txt" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let oc = open_out path in
  let sink = Sink.progress ~out:oc ~every:0.0 () in
  Obs.with_sink sink (fun () ->
      List.iter Obs.emit
        [ Event.Node_evaluated
            { engine = "abonn"; depth = 0; gamma = Tree.root_gamma; phat = -0.2;
              reward = 0.4 };
          Event.Node_evaluated
            { engine = "abonn"; depth = 1; gamma = "r1+"; phat = -0.1; reward = 0.6 };
          Event.Exact_leaf { engine = "abonn"; depth = 2; verified = true } ]);
  sink.Sink.close ();
  close_out oc;
  let ic = open_in path in
  let content = really_input_string ic (in_channel_length ic) in
  close_in ic;
  (* heartbeats are \r-separated in-place updates of one line; a
     non-positive cadence is clamped (not per-event), so the three
     events land as the immediate first print plus the final aggregate
     that [close] flushes *)
  let updates =
    String.split_on_char '\r' content |> List.filter (fun s -> String.trim s <> "")
  in
  Alcotest.(check int) "first print plus final aggregate" 2 (List.length updates);
  let last = List.nth updates 1 in
  check_contains "final calls" "calls=3" last;
  check_contains "final nodes" "nodes=2" last;
  check_contains "final depth" "depth=2" last;
  check_contains "final best" "best=0.6" last;
  Alcotest.(check bool) "close terminates the line" true
    (String.length content > 0 && content.[String.length content - 1] = '\n')

let test_progress_sink_silent_when_uninstalled () =
  (* The single-branch overhead guarantee: an emitted event reaches no
     sink that is not installed. *)
  let path = Filename.temp_file "abonn_progress" ".txt" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let oc = open_out path in
  let _sink : Sink.t = Sink.progress ~out:oc ~every:0.0 () in
  Obs.emit
    (Event.Node_evaluated
       { engine = "abonn"; depth = 0; gamma = Tree.root_gamma; phat = -0.2; reward = 0.4 });
  close_out oc;
  let ic = open_in path in
  let len = in_channel_length ic in
  close_in ic;
  Alcotest.(check int) "no output" 0 len

(* --- follow (tail) mode --- *)

module Monitor = Abonn_trace.Monitor
module Registry = Abonn_trace.Registry
module Regress = Abonn_trace.Regress

let mk_env seq t event = { Event.seq; t; domain = None; event }

let node_env seq t depth =
  mk_env seq t
    (Event.Node_evaluated
       { engine = "abonn"; depth; gamma = Tree.root_gamma; phat = -0.2; reward = 0.4 })

let append_raw path s =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  output_string oc s;
  close_out oc

let test_tail_partial_line_recovery () =
  let path = Filename.temp_file "abonn_tail" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let l1 = Event.to_json (node_env 1 0.0 0) in
  let l2 = Event.to_json (node_env 2 0.1 1) in
  let l3 = Event.to_json (node_env 3 0.2 2) in
  let cut = String.length l2 / 2 in
  (* first line complete, second cut mid-record — as a writer's buffer
     flush can leave it *)
  append_raw path (l1 ^ "\n" ^ String.sub l2 0 cut);
  let tail = Reader.tail_open path in
  Fun.protect ~finally:(fun () -> Reader.tail_close tail) @@ fun () ->
  let got = ref [] in
  let issues1 = Reader.tail_poll tail ~f:(fun env -> got := env :: !got) in
  Alcotest.(check int) "only the complete line parsed" 1 (List.length !got);
  Alcotest.(check int) "partial line is not an issue" 0 (List.length issues1);
  (* the rest of line 2 arrives, plus line 3 *)
  append_raw path (String.sub l2 cut (String.length l2 - cut) ^ "\n" ^ l3 ^ "\n");
  let issues2 = Reader.tail_poll tail ~f:(fun env -> got := env :: !got) in
  Alcotest.(check int) "no issues after completion" 0 (List.length issues2);
  let seqs = List.rev_map (fun e -> e.Event.seq) !got in
  Alcotest.(check (list int)) "all three events, in order" [ 1; 2; 3 ] seqs

let test_tail_integrity_across_polls () =
  let path = Filename.temp_file "abonn_tail" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  append_raw path (Event.to_json (node_env 1 0.0 0) ^ "\n");
  let tail = Reader.tail_open path in
  Fun.protect ~finally:(fun () -> Reader.tail_close tail) @@ fun () ->
  Alcotest.(check int) "clean first poll" 0
    (List.length (Reader.tail_poll tail ~f:ignore));
  (* seq 3 after seq 1: the gap must be flagged even though the two
     lines arrived in different polls *)
  append_raw path (Event.to_json (node_env 3 0.2 1) ^ "\n");
  (match Reader.tail_poll tail ~f:ignore with
   | [ Reader.Seq_gap { expected = 2; got = 3; _ } ] -> ()
   | issues ->
     Alcotest.fail
       (Printf.sprintf "expected one seq gap, got %d issue(s)" (List.length issues)));
  Alcotest.(check bool) "offset advanced" true (Reader.tail_offset tail > 0)

let test_tail_resume_at_offset () =
  let path = Filename.temp_file "abonn_tail" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  append_raw path (Event.to_json (node_env 1 0.0 0) ^ "\n");
  let t1 = Reader.tail_open path in
  ignore (Reader.tail_poll t1 ~f:ignore);
  let offset = Reader.tail_offset t1 in
  Reader.tail_close t1;
  append_raw path (Event.to_json (node_env 2 0.1 1) ^ "\n");
  (* a new tail resumed at the saved offset sees only the new line *)
  let t2 = Reader.tail_open ~offset path in
  Fun.protect ~finally:(fun () -> Reader.tail_close t2) @@ fun () ->
  let got = ref [] in
  ignore (Reader.tail_poll t2 ~f:(fun env -> got := env :: !got));
  match !got with
  | [ env ] -> Alcotest.(check int) "only the appended event" 2 env.Event.seq
  | l -> Alcotest.fail (Printf.sprintf "expected 1 event, got %d" (List.length l))

(* --- monitor --- *)

let test_monitor_aggregates () =
  let m = Monitor.create () in
  Monitor.feed m
    (mk_env 1 0.0 (Event.Run_started { engine = "abonn"; instance = "mnist_l2:0" }));
  Monitor.feed m (node_env 2 0.5 0);
  Monitor.feed m (node_env 3 1.0 1);
  Monitor.feed m (node_env 4 1.5 2);
  Monitor.feed m
    (mk_env 5 1.6
       (Event.Resource_sample
          { engine = "abonn"; rss_bytes = 50_000_000; heap_bytes = 10_000_000;
            minor_words = 1e6; major_words = 1e5; minor_gcs = 5; major_gcs = 1;
            cpu = 1.0; wall = 1.6; open_nodes = 2; nodes = 3; max_depth = 2;
            nps = 2.0 }));
  Alcotest.(check bool) "not finished mid-run" false (Monitor.finished m);
  Alcotest.(check bool) "node rate positive" true (Monitor.nodes_per_sec m > 0.0);
  (* verdict_reached inside the harness bracket does not end the watch *)
  Monitor.feed m
    (mk_env 6 1.8
       (Event.Verdict_reached { engine = "abonn"; verdict = "verified"; elapsed = 1.8 }));
  Alcotest.(check bool) "engine verdict is interior" false (Monitor.finished m);
  Monitor.feed m
    (mk_env 7 2.0
       (Event.Run_finished
          { engine = "abonn"; instance = "mnist_l2:0"; verdict = "verified"; calls = 3;
            nodes = 3; max_depth = 2; wall = 2.0 }));
  Alcotest.(check bool) "run_finished ends the watch" true (Monitor.finished m);
  let rendered = Monitor.render ~calls_budget:100 m in
  List.iter
    (fun affix ->
      let n = String.length affix and s = rendered in
      let rec go i = i + n <= String.length s && (String.sub s i n = affix || go (i + 1)) in
      Alcotest.(check bool) (Printf.sprintf "render mentions %S" affix) true (go 0))
    [ "abonn"; "verified"; "rss curve"; "depth histogram"; "phase split" ]

(* --- registry --- *)

let test_registry_round_trip () =
  let r =
    Registry.make ~ts:"2026-08-07T00:00:00Z" ~commit:"abc1234" ~peak_rss_bytes:123456
      ~engine:"abonn" ~model:"mnist_l2" ~instance:"index0_eps0.02" ~seed:7
      ~verdict:"verified" ~wall:1.25 ~calls:400 ~nodes:401 ~max_depth:9 ()
  in
  (match Registry.of_json (Registry.to_json r) with
   | Ok back -> Alcotest.(check bool) "round trip" true (back = r)
   | Error msg -> Alcotest.fail msg);
  Alcotest.(check int) "schema version stamped" Registry.schema_version r.Registry.schema

let test_registry_append_load () =
  let dir = Filename.temp_file "abonn_registry" "" in
  Sys.remove dir;
  (* append creates the directory chain *)
  let path = Filename.concat (Filename.concat dir "results") "registry.jsonl" in
  Fun.protect ~finally:(fun () ->
      if Sys.file_exists path then Sys.remove path;
      if Sys.file_exists (Filename.dirname path) then Unix.rmdir (Filename.dirname path);
      if Sys.file_exists dir then Unix.rmdir dir)
  @@ fun () ->
  let mk i =
    Registry.make ~ts:"2026-08-07T00:00:00Z" ~commit:"abc1234" ~peak_rss_bytes:(1000 * i)
      ~engine:"abonn" ~model:"mnist_l2" ~instance:(Printf.sprintf "i%d" i) ~seed:i
      ~verdict:"timeout" ~wall:0.5 ~calls:100 ~nodes:99 ~max_depth:4 ()
  in
  Registry.append ~path (mk 1);
  Registry.append ~path (mk 2);
  (* a corrupt line must not take the rest of the file down *)
  append_raw path "not json\n";
  Registry.append ~path (mk 3);
  let records, errors = Registry.load ~path () in
  Alcotest.(check int) "three good records" 3 (List.length records);
  Alcotest.(check int) "one bad line" 1 (List.length errors);
  Alcotest.(check (list string))
    "order preserved" [ "i1"; "i2"; "i3" ]
    (List.map (fun r -> r.Registry.instance) records);
  (* missing file loads as empty *)
  let none, errs = Registry.load ~path:(Filename.concat dir "absent.jsonl") () in
  Alcotest.(check int) "missing file is empty" 0 (List.length none);
  Alcotest.(check int) "missing file no errors" 0 (List.length errs)

(* --- regression gate --- *)

let stamped_bench nps =
  Printf.sprintf
    {|{
  "schema": 1,
  "commit": "abc1234",
  "date": "2026-08-07T00:00:00Z",
  "rows": {
    "mlp_a": {"nodes": 401, "max_depth": 9, "verdict": "timeout",
              "nodes_per_sec_cached": %.1f, "nodes_per_sec_uncached": 1000.0,
              "speedup": 3.0, "peak_rss_bytes": 104857600}
  },
  "geomean_speedup": 3.0
}|}
    nps

let flat_bench nps =
  Printf.sprintf
    {|{
  "mlp_a": {"nodes": 401, "max_depth": 9, "verdict": "timeout",
            "nodes_per_sec_cached": %.1f, "nodes_per_sec_uncached": 1000.0,
            "speedup": 3.0},
  "geomean_speedup": 3.0
}|}
    nps

let load_ok text =
  match Regress.load_string text with
  | Ok b -> b
  | Error msg -> Alcotest.fail msg

let test_regress_both_layouts () =
  let stamped = load_ok (stamped_bench 3000.0) in
  let flat = load_ok (flat_bench 3000.0) in
  Alcotest.(check int) "stamped rows" 1 (List.length stamped.Regress.rows);
  Alcotest.(check int) "flat rows" 1 (List.length flat.Regress.rows);
  Alcotest.(check (option string)) "stamped commit" (Some "abc1234") stamped.Regress.commit;
  Alcotest.(check (option string)) "flat has no commit" None flat.Regress.commit;
  (match stamped.Regress.rows with
   | [ (_, row) ] ->
     Alcotest.(check (option int)) "peak rss parsed" (Some 104857600)
       row.Regress.peak_rss_bytes
   | _ -> Alcotest.fail "expected one stamped row")

(* Kernel bench rows carry ns_per_run instead of a node rate; the
   loader exposes them as runs/sec so the same gate covers
   BENCH_kernels.json (kernel_lp_warm among them). *)
let kernel_bench ns =
  Printf.sprintf
    {|{
  "schema": 1,
  "commit": "abc1234",
  "date": "2026-08-07T00:00:00Z",
  "rows": {
    "abonn/kernel_lp_call": {"ns_per_run": 1808530260.655, "r_square": 0.937},
    "abonn/kernel_lp_warm": {"ns_per_run": %.3f, "r_square": 0.99}
  }
}|}
    ns

let test_regress_kernel_layout () =
  let b = load_ok (kernel_bench 103_000_000.0) in
  Alcotest.(check int) "kernel rows" 2 (List.length b.Regress.rows);
  (match List.assoc_opt "abonn/kernel_lp_warm" b.Regress.rows with
   | Some row ->
     Alcotest.(check bool) "runs/sec derived" true
       (Float.abs (row.Regress.nps_cached -. (1e9 /. 103_000_000.0)) < 1e-9)
   | None -> Alcotest.fail "kernel_lp_warm row missing");
  (* a 2x-slower fresh warm kernel must trip the gate *)
  let fresh = load_ok (kernel_bench 206_000_000.0) in
  let r = Regress.compare_benches ~max_regress:20.0 ~baseline:b ~fresh () in
  Alcotest.(check bool) "2x slower kernel fails" false r.Regress.ok;
  let r = Regress.compare_benches ~max_regress:20.0 ~baseline:b ~fresh:b () in
  Alcotest.(check bool) "identical kernels pass" true r.Regress.ok

let test_regress_gate_pass_and_fail () =
  let baseline = load_ok (stamped_bench 3000.0) in
  (* 10% below baseline: inside a 20% tolerance *)
  let fresh_ok = load_ok (stamped_bench 2700.0) in
  let r = Regress.compare_benches ~max_regress:20.0 ~baseline ~fresh:fresh_ok () in
  Alcotest.(check bool) "10% drop passes at 20%" true r.Regress.ok;
  (* 40% below baseline: must trip *)
  let fresh_slow = load_ok (stamped_bench 1800.0) in
  let r = Regress.compare_benches ~max_regress:20.0 ~baseline ~fresh:fresh_slow () in
  Alcotest.(check bool) "40% drop fails at 20%" false r.Regress.ok;
  (match r.Regress.verdicts with
   | [ v ] -> Alcotest.(check bool) "row flagged" true v.Regress.regressed
   | _ -> Alcotest.fail "expected one verdict");
  (* the CI negative test: scaling the baseline 10x must always fail *)
  let r =
    Regress.compare_benches ~scale_baseline:10.0 ~max_regress:20.0 ~baseline
      ~fresh:fresh_ok ()
  in
  Alcotest.(check bool) "synthetic 10x baseline fails" false r.Regress.ok;
  (* speeding up never trips the gate *)
  let fresh_fast = load_ok (stamped_bench 9000.0) in
  let r = Regress.compare_benches ~max_regress:20.0 ~baseline ~fresh:fresh_fast () in
  Alcotest.(check bool) "speedup passes" true r.Regress.ok

let test_regress_missing_row_fails () =
  let baseline = load_ok (stamped_bench 3000.0) in
  let fresh =
    load_ok
      {|{"other": {"nodes_per_sec_cached": 3000.0}, "geomean_speedup": 3.0}|}
  in
  let r = Regress.compare_benches ~max_regress:20.0 ~baseline ~fresh () in
  Alcotest.(check bool) "missing instance fails the gate" false r.Regress.ok;
  Alcotest.(check (list string)) "named" [ "mlp_a" ] r.Regress.missing

let test_regress_report_renders () =
  let baseline = load_ok (stamped_bench 3000.0) in
  let fresh = load_ok (stamped_bench 1800.0) in
  let r = Regress.compare_benches ~max_regress:20.0 ~baseline ~fresh () in
  let rendered = Regress.report_to_string ~max_regress:20.0 r in
  List.iter
    (fun affix ->
      let n = String.length affix in
      let rec go i =
        i + n <= String.length rendered
        && (String.sub rendered i n = affix || go (i + 1))
      in
      Alcotest.(check bool) (Printf.sprintf "report mentions %S" affix) true (go 0))
    [ "mlp_a"; "REGRESSED"; "FAIL"; "MiB" ]

let suite =
  [ ( "trace.reader",
      [ Alcotest.test_case "golden parses clean" `Quick test_reader_golden;
        Alcotest.test_case "cached golden parses clean" `Quick test_reader_golden_cached;
        Alcotest.test_case "malformed-line recovery" `Quick test_reader_recovery;
        Alcotest.test_case "missing file" `Quick test_reader_missing_file
      ] );
    ( "trace.tree",
      [ Alcotest.test_case "golden shape" `Quick test_tree_golden_shape;
        Alcotest.test_case "ascii + dot renderings" `Quick test_tree_renderings;
        Alcotest.test_case "render truncation" `Quick test_tree_truncation;
        Alcotest.test_case "baseline depth profile" `Quick test_tree_baseline_profile_only
      ] );
    ( "trace.phases",
      [ Alcotest.test_case "golden totals" `Quick test_phases_golden;
        Alcotest.test_case "cached golden totals" `Quick test_phases_golden_cached;
        Alcotest.test_case "lp inside appver window" `Quick test_phases_lp_inside_appver
      ] );
    ( "trace.curve", [ Alcotest.test_case "golden curve" `Quick test_curve_golden ] );
    ( "trace.summary",
      [ Alcotest.test_case "golden summary" `Quick test_summary_golden;
        Alcotest.test_case "cached golden summary" `Quick test_summary_golden_cached;
        Alcotest.test_case "harness segmentation" `Quick test_summary_segments_harness_trace;
        Alcotest.test_case "composite bracket uses reported stats" `Quick
          test_summary_composite_bracket;
        Alcotest.test_case "reproduces abonn run" `Quick test_summary_reproduces_abonn_run;
        Alcotest.test_case "reproduces bfs run" `Quick test_summary_reproduces_bfs_run;
        Alcotest.test_case "reproduces bestfirst run" `Quick
          test_summary_reproduces_bestfirst_run
      ]
      @ List.map
          (fun (name, f) -> Alcotest.test_case name `Quick f)
          summary_timeout_cases );
    ( "trace.diff",
      [ Alcotest.test_case "self diff is neutral" `Quick test_diff_self_is_neutral;
        Alcotest.test_case "abonn vs bfs" `Quick test_diff_abonn_vs_bfs;
        Alcotest.test_case "cached vs uncached run" `Quick test_diff_cached_vs_uncached
      ] );
    ( "trace.progress",
      [ Alcotest.test_case "heartbeat aggregates" `Quick test_progress_sink_heartbeat;
        Alcotest.test_case "uninstalled is silent" `Quick
          test_progress_sink_silent_when_uninstalled
      ] );
    ( "trace.tail",
      [ Alcotest.test_case "partial-line recovery" `Quick test_tail_partial_line_recovery;
        Alcotest.test_case "integrity across polls" `Quick test_tail_integrity_across_polls;
        Alcotest.test_case "resume at offset" `Quick test_tail_resume_at_offset
      ] );
    ( "trace.monitor",
      [ Alcotest.test_case "aggregates and renders" `Quick test_monitor_aggregates ] );
    ( "trace.registry",
      [ Alcotest.test_case "round trip" `Quick test_registry_round_trip;
        Alcotest.test_case "append and load" `Quick test_registry_append_load
      ] );
    ( "trace.regress",
      [ Alcotest.test_case "both layouts parse" `Quick test_regress_both_layouts;
        Alcotest.test_case "kernel ns_per_run layout" `Quick test_regress_kernel_layout;
        Alcotest.test_case "gate pass and fail" `Quick test_regress_gate_pass_and_fail;
        Alcotest.test_case "missing row fails" `Quick test_regress_missing_row_fails;
        Alcotest.test_case "report renders" `Quick test_regress_report_renders
      ] )
  ]
