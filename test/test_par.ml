(* Tests for the multicore BaB layer (lib/par + the engines' --domains
   paths): Chase–Lev deque semantics under concurrent stealing, pool
   exactly-once processing and termination, deterministic per-domain RNG
   splitting, encoder byte-stability for untagged envelopes, and
   multi-domain verdict agreement with the sequential engines — the
   executable form of the docs/PARALLELISM.md determinism contract.
   Step-for-step sequential behaviour is pinned in test_engines.ml. *)

module Rng = Abonn_util.Rng
module Budget = Abonn_util.Budget
module Obs = Abonn_obs.Obs
module Sink = Abonn_obs.Sink
module Event = Abonn_obs.Event
module Metrics = Abonn_obs.Metrics
module Deque = Abonn_par.Deque
module Pool = Abonn_par.Pool
module Region = Abonn_spec.Region
module Property = Abonn_spec.Property
module Verdict = Abonn_spec.Verdict
module Problem = Abonn_spec.Problem
module Network = Abonn_nn.Network
module Builder = Abonn_nn.Builder
module Bfs = Abonn_bab.Bfs
module Bestfirst = Abonn_bab.Bestfirst
module Inputsplit = Abonn_bab.Inputsplit
module Certificate = Abonn_bab.Certificate
module Result = Abonn_bab.Result

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

(* --- deque: sequential semantics --- *)

let test_deque_lifo_fifo () =
  let d = Deque.create () in
  for i = 0 to 9 do
    Deque.push d i
  done;
  Alcotest.(check int) "length" 10 (Deque.length d);
  (* owner pops LIFO from the bottom *)
  Alcotest.(check (option int)) "pop newest" (Some 9) (Deque.pop d);
  Alcotest.(check (option int)) "pop next" (Some 8) (Deque.pop d);
  (* thief steals FIFO from the top *)
  Alcotest.(check (option int)) "steal oldest" (Some 0) (Deque.steal d);
  Alcotest.(check (option int)) "steal next" (Some 1) (Deque.steal d);
  let rec drain n = match Deque.pop d with Some _ -> drain (n + 1) | None -> n in
  Alcotest.(check int) "remaining" 6 (drain 0);
  Alcotest.(check (option int)) "empty pop" None (Deque.pop d);
  Alcotest.(check (option int)) "empty steal" None (Deque.steal d)

let test_deque_grows () =
  (* push far past the initial buffer capacity, then drain *)
  let d = Deque.create () in
  let n = 10_000 in
  for i = 0 to n - 1 do
    Deque.push d i
  done;
  let seen = Array.make n false in
  let rec drain () =
    match Deque.pop d with
    | Some v ->
      Alcotest.(check bool) "no duplicate" false seen.(v);
      seen.(v) <- true;
      drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check bool) "all present" true (Array.for_all Fun.id seen)

(* --- deque: concurrent owner/thief stress --- *)

let test_deque_concurrent_stress () =
  let n = 20_000 and thieves = 3 in
  let d = Deque.create () in
  let counts = Array.init n (fun _ -> Atomic.make 0) in
  let done_pushing = Atomic.make false in
  let take = function
    | Some v -> Atomic.incr counts.(v)
    | None -> Domain.cpu_relax ()
  in
  let thief () =
    let rec go () =
      match Deque.steal d with
      | Some v ->
        Atomic.incr counts.(v);
        go ()
      | None -> if Atomic.get done_pushing then () else (Domain.cpu_relax (); go ())
    in
    go ()
  in
  let spawned = Array.init thieves (fun _ -> Domain.spawn thief) in
  (* owner: interleave pushes with occasional pops *)
  for i = 0 to n - 1 do
    Deque.push d i;
    if i land 7 = 0 then take (Deque.pop d)
  done;
  let rec drain () =
    match Deque.pop d with
    | Some v ->
      Atomic.incr counts.(v);
      drain ()
    | None -> ()
  in
  drain ();
  Atomic.set done_pushing true;
  Array.iter Domain.join spawned;
  (* after the owner drained and every thief exited, each pushed item
     was taken exactly once: nothing lost, nothing duplicated *)
  Array.iteri
    (fun i c -> Alcotest.(check int) (Printf.sprintf "item %d taken once" i) 1 (Atomic.get c))
    counts

(* --- pool: exactly-once processing and stats accounting --- *)

let test_pool_exactly_once () =
  let n = 2_000 and domains = 4 in
  let counts = Array.init n (fun _ -> Atomic.make 0) in
  (* implicit binary tree: processing node i schedules its children *)
  let work ctx i =
    Atomic.incr counts.(i);
    if (2 * i) + 1 < n then Pool.push ctx ((2 * i) + 1);
    if (2 * i) + 2 < n then Pool.push ctx ((2 * i) + 2)
  in
  let stats = Pool.run ~domains ~roots:[ 0 ] ~work () in
  Array.iteri
    (fun i c ->
      Alcotest.(check int) (Printf.sprintf "node %d processed once" i) 1 (Atomic.get c))
    counts;
  Alcotest.(check int) "stats rows" domains (Array.length stats);
  let processed = Array.fold_left (fun a st -> a + st.Pool.processed) 0 stats in
  let pushed = Array.fold_left (fun a st -> a + st.Pool.pushed) 0 stats in
  Alcotest.(check int) "sum processed = tree size" n processed;
  Alcotest.(check int) "sum pushed = non-root nodes" (n - 1) pushed

let test_pool_single_domain_inline () =
  (* domains:1 runs entirely on the calling domain, in deterministic
     LIFO order, with no steals and no idling *)
  let order = ref [] in
  let work ctx i =
    order := i :: !order;
    if i < 2 then begin
      Pool.push ctx (10 + i);
      Pool.push ctx (20 + i)
    end
  in
  let stats = Pool.run ~domains:1 ~roots:[ 0; 1; 2 ] ~work () in
  Alcotest.(check (list int)) "LIFO visit order" [ 2; 1; 21; 11; 0; 20; 10 ]
    (List.rev !order);
  Alcotest.(check int) "no steals" 0 stats.(0).Pool.stolen;
  Alcotest.(check int) "no idling" 0 stats.(0).Pool.idle

let test_pool_stop_abandons_queue () =
  let processed = Atomic.make 0 in
  let work ctx _i =
    Atomic.incr processed;
    Pool.request_stop ctx
  in
  let stats =
    Pool.run ~domains:1 ~roots:[ 0; 1; 2; 3; 4 ] ~work ()
  in
  (* the stop lands after the first item: queued items are abandoned *)
  Alcotest.(check int) "only first item ran" 1 (Atomic.get processed);
  Alcotest.(check int) "stats agree" 1 stats.(0).Pool.processed

let test_pool_propagates_exception () =
  let work _ctx i = if i = 3 then failwith "boom" in
  match Pool.run ~domains:2 ~roots:[ 0; 1; 2; 3; 4; 5 ] ~work () with
  | _ -> Alcotest.fail "expected the worker exception to re-raise"
  | exception Failure msg -> Alcotest.(check string) "original exception" "boom" msg

let test_pool_rng_streams_deterministic () =
  (* Each domain's stream is split from the master in domain order, so
     domain i's first draw is a pure function of (seed, i) — whatever
     the scheduling.  Domains that never got an item are skipped. *)
  let domains = 4 and seed = 42 in
  let expected =
    let master = Rng.create seed in
    Array.init domains (fun _ ->
        let r = Rng.split master in
        Rng.int r 1_000_000)
  in
  let draws = Array.make domains (-1) in
  let work ctx _i =
    let id = Pool.id ctx in
    if draws.(id) < 0 then draws.(id) <- Rng.int (Pool.rng ctx) 1_000_000
  in
  ignore (Pool.run ~domains ~seed ~roots:[ 0; 1; 2; 3; 4; 5; 6; 7 ] ~work ());
  Array.iteri
    (fun i d ->
      if d >= 0 then
        Alcotest.(check int) (Printf.sprintf "domain %d stream head" i) expected.(i) d)
    draws

let test_default_domains_env () =
  let with_env v f =
    let old = Sys.getenv_opt "ABONN_DOMAINS" in
    (match v with Some s -> Unix.putenv "ABONN_DOMAINS" s | None -> Unix.putenv "ABONN_DOMAINS" "");
    Fun.protect
      ~finally:(fun () ->
        Unix.putenv "ABONN_DOMAINS" (Option.value ~default:"" old))
      f
  in
  with_env (Some "4") (fun () ->
      Alcotest.(check int) "parses" 4 (Pool.default_domains ()));
  with_env (Some "0") (fun () ->
      Alcotest.(check int) "clamps to 1" 1 (Pool.default_domains ()));
  with_env (Some "9999") (fun () ->
      Alcotest.(check int) "clamps to 64" 64 (Pool.default_domains ()));
  with_env (Some "nope") (fun () ->
      Alcotest.(check int) "garbage is 1" 1 (Pool.default_domains ()));
  with_env None (fun () ->
      Alcotest.(check int) "unset is 1" 1 (Pool.default_domains ()))

(* --- domains:1 ≡ sequential --- *)

(* The untagged envelope encoder is byte-for-byte the pre-parallelism
   one: re-encoding the machine-written golden trace reproduces every
   line exactly. *)
let test_golden_encoding_unchanged () =
  let ic = open_in "fixtures/golden_cached.jsonl" in
  let rec go line_no =
    match input_line ic with
    | line ->
      (match Event.of_json line with
       | Ok env ->
         Alcotest.(check string)
           (Printf.sprintf "line %d re-encodes identically" line_no)
           line (Event.to_json env)
       | Error msg -> Alcotest.failf "line %d: %s" line_no msg);
      go (line_no + 1)
    | exception End_of_file -> close_in ic
  in
  go 1

(* --- multi-domain runs --- *)

let verdicts_agree name a b =
  (* complete runs must agree; witnesses may differ but must validate *)
  match (a, b) with
  | Verdict.Verified, Verdict.Verified -> ()
  | Verdict.Falsified _, Verdict.Falsified _ -> ()
  | Verdict.Timeout, _ | _, Verdict.Timeout ->
    Alcotest.failf "%s: unexpected timeout (%s vs %s)" name (Verdict.to_string a)
      (Verdict.to_string b)
  | _ ->
    Alcotest.failf "%s: verdicts disagree (%s vs %s)" name (Verdict.to_string a)
      (Verdict.to_string b)

let check_witness problem = function
  | Verdict.Falsified x ->
    Alcotest.(check bool) "witness validates" true (Problem.is_counterexample problem x)
  | Verdict.Verified | Verdict.Timeout -> ()

let test_parallel_verdicts_match_sequential () =
  (* a spread of seeds lands on both Verified and Falsified instances *)
  List.iter
    (fun seed ->
      let problem = random_problem ~seed ~dims:[ 2; 6; 2 ] ~eps:0.3 () in
      let budget () = Budget.of_calls 4_000 in
      let engines =
        [ ("bfs",
           fun d -> (Bfs.verify ~budget:(budget ()) ~domains:d problem).Result.verdict);
          ("bestfirst",
           fun d ->
             (Bestfirst.verify ~budget:(budget ()) ~domains:d problem).Result.verdict);
          ("inputsplit",
           fun d ->
             (Inputsplit.verify ~budget:(budget ()) ~domains:d problem).Result.verdict);
          ("abonn",
           fun d ->
             (Abonn_core.Abonn.verify ~budget:(budget ()) ~domains:d problem)
               .Result.verdict)
        ]
      in
      List.iter
        (fun (name, run) ->
          let seq = run 1 and par = run 4 in
          check_witness problem par;
          verdicts_agree (Printf.sprintf "%s seed %d" name seed) seq par)
        engines)
    [ 0; 1; 2; 3 ]

let test_parallel_certificate_checks () =
  (* find a Verified instance, then certify it on 4 domains *)
  let problem = random_problem ~seed:1 ~dims:[ 2; 6; 2 ] ~eps:0.1 () in
  let seq = Bfs.verify ~domains:1 problem in
  Alcotest.(check string) "instance verifies sequentially" "verified"
    (Verdict.to_string seq.Result.verdict);
  match Bfs.verify_with_certificate ~domains:4 problem with
  | _, None -> Alcotest.fail "parallel Verified run must produce a certificate"
  | r, Some cert ->
    Alcotest.(check string) "parallel verdict" "verified"
      (Verdict.to_string r.Result.verdict);
    (match Certificate.check problem cert with
     | Ok () -> ()
     | Error e -> Alcotest.failf "certificate rejected: %a" Certificate.pp_error e)

let test_parallel_trace_attribution () =
  (* a traced 4-domain run yields gap-free sequence numbers, one
     domain_summary per domain, and work accounting that adds up.  A
     Verified instance, so no early stop abandons queued items and
     every processed item emitted exactly one frontier_pop. *)
  let problem = random_problem ~seed:1 ~dims:[ 2; 6; 2 ] ~eps:0.1 () in
  let sink, events = Sink.memory () in
  let r =
    Obs.with_sink sink (fun () -> Bfs.verify ~domains:4 problem)
  in
  let events = events () in
  List.iteri
    (fun i e -> Alcotest.(check int) "gap-free seq" (i + 1) e.Event.seq)
    events;
  let summaries =
    List.filter_map
      (fun e ->
        match e.Event.event with
        | Event.Domain_summary { domain; processed; _ } -> Some (domain, processed)
        | _ -> None)
      events
  in
  Alcotest.(check int) "one summary per domain" 4 (List.length summaries);
  Alcotest.(check (list int)) "summaries in domain order" [ 0; 1; 2; 3 ]
    (List.map fst summaries);
  let pops =
    List.length
      (List.filter
         (fun e ->
           match e.Event.event with Event.Frontier_pop _ -> true | _ -> false)
         events)
  in
  let processed = List.fold_left (fun a (_, p) -> a + p) 0 summaries in
  (* with an unlimited budget nothing is abandoned: every processed
     item emitted exactly one frontier_pop *)
  Alcotest.(check int) "summaries account for every pop" pops processed;
  Alcotest.(check string) "verdict reached" "verified"
    (Verdict.to_string r.Result.verdict)

(* Metric names do not depend on the domain count: a parallel
   bab-baseline run counts under the same bfs.* names as the sequential
   engine (docs/TRACE_SCHEMA.md §3), not under its trace name. *)
let test_parallel_bfs_metric_names () =
  let problem = random_problem ~seed:0 ~dims:[ 2; 6; 2 ] ~eps:0.35 () in
  let was_enabled = Metrics.enabled () in
  Metrics.reset ();
  Metrics.set_enabled true;
  let snap =
    Fun.protect
      ~finally:(fun () ->
        Metrics.reset ();
        Metrics.set_enabled was_enabled)
      (fun () ->
        ignore (Bfs.verify ~domains:2 problem);
        Metrics.snapshot ())
  in
  let counter name = Option.value ~default:0 (List.assoc_opt name snap.Metrics.counters) in
  Alcotest.(check bool) "bfs.pop counted" true (counter "bfs.pop" > 0);
  Alcotest.(check bool) "bfs.exact counted" true (counter "bfs.exact" > 0);
  Alcotest.(check bool) "bfs.depth observed" true
    (List.mem_assoc "bfs.depth" snap.Metrics.hists);
  let names =
    List.map fst snap.Metrics.counters
    @ List.map fst snap.Metrics.spans
    @ List.map fst snap.Metrics.gauges
    @ List.map fst snap.Metrics.hists
  in
  Alcotest.(check (list string)) "no bab-baseline.* metric" []
    (List.filter (String.starts_with ~prefix:"bab-baseline.") names)

let test_domain_tag_round_trip () =
  let env =
    { Event.seq = 7; t = 0.5; domain = Some 2;
      event =
        Event.Frontier_pop
          { engine = "bab-baseline"; depth = 3; frontier = 5; priority = Float.nan } }
  in
  let contains_sub s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  let json = Event.to_json env in
  Alcotest.(check bool) "serializes the tag" true
    (contains_sub json "\"domain\":2");
  (match Event.of_json json with
   | Ok back -> Alcotest.(check bool) "round-trips" true (Event.equal env back)
   | Error msg -> Alcotest.fail msg);
  let summary =
    { Event.seq = 8; t = 0.6; domain = Some 2;
      event =
        Event.Domain_summary
          { engine = "bab-baseline"; domain = 2; processed = 10; pushed = 9;
            stolen = 1; idle = 4 } }
  in
  let sjson = Event.to_json summary in
  (* the envelope tag is suppressed on domain_summary lines (the event
     owns the "domain" key); parsing reads the envelope tag as None *)
  (match Event.of_json sjson with
   | Ok back ->
     Alcotest.(check bool) "summary envelope untagged" true (back.Event.domain = None)
   | Error msg -> Alcotest.fail msg)

let suite =
  [ ( "par",
      [ Alcotest.test_case "deque LIFO pop / FIFO steal" `Quick test_deque_lifo_fifo;
        Alcotest.test_case "deque grows past initial capacity" `Quick test_deque_grows;
        Alcotest.test_case "deque concurrent stress: exactly once" `Quick
          test_deque_concurrent_stress;
        Alcotest.test_case "pool processes a tree exactly once" `Quick
          test_pool_exactly_once;
        Alcotest.test_case "pool domains:1 is inline LIFO" `Quick
          test_pool_single_domain_inline;
        Alcotest.test_case "pool stop abandons queued items" `Quick
          test_pool_stop_abandons_queue;
        Alcotest.test_case "pool re-raises worker exceptions" `Quick
          test_pool_propagates_exception;
        Alcotest.test_case "pool RNG streams deterministic" `Quick
          test_pool_rng_streams_deterministic;
        Alcotest.test_case "ABONN_DOMAINS parsing and clamping" `Quick
          test_default_domains_env;
        Alcotest.test_case "golden trace encoding unchanged" `Quick
          test_golden_encoding_unchanged;
        Alcotest.test_case "parallel verdicts match sequential" `Quick
          test_parallel_verdicts_match_sequential;
        Alcotest.test_case "parallel certificate passes check" `Quick
          test_parallel_certificate_checks;
        Alcotest.test_case "parallel trace attribution adds up" `Quick
          test_parallel_trace_attribution;
        Alcotest.test_case "parallel bfs metric names" `Quick
          test_parallel_bfs_metric_names;
        Alcotest.test_case "domain tag JSON round-trip" `Quick
          test_domain_tag_round_trip
      ] )
  ]
