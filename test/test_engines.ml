(* Pinned sequential behaviour of every engine.  Each engine runs at
   ~domains:1 on a few small seeded problems (between them they verify,
   falsify, time out and reach exact leaves) with full introspection and
   metrics on, and the run is compared line for line against
   fixtures/engine_streams.txt: verdict, AppVer calls, nodes, max depth,
   certificate leaves, the counter and histogram snapshot, the event
   counts by name and a digest of the event stream with its timing
   removed.  A refactor of the search loops that keeps every run step
   for step leaves the fixture untouched; on a mismatch the test prints
   the fresh fixture line. *)

module Rng = Abonn_util.Rng
module Budget = Abonn_util.Budget
module Obs = Abonn_obs.Obs
module Sink = Abonn_obs.Sink
module Event = Abonn_obs.Event
module Metrics = Abonn_obs.Metrics
module Introspect = Abonn_obs.Introspect
module Region = Abonn_spec.Region
module Property = Abonn_spec.Property
module Verdict = Abonn_spec.Verdict
module Problem = Abonn_spec.Problem
module Split = Abonn_spec.Split
module Network = Abonn_nn.Network
module Builder = Abonn_nn.Builder
module Bfs = Abonn_bab.Bfs
module Bestfirst = Abonn_bab.Bestfirst
module Inputsplit = Abonn_bab.Inputsplit
module Certificate = Abonn_bab.Certificate
module Result = Abonn_bab.Result
module Abonn = Abonn_core.Abonn
module Config = Abonn_core.Config

let fixture = "fixtures/engine_streams.txt"

let random_problem ~seed ~dims ~eps =
  let rng = Rng.create seed in
  let net = Builder.mlp rng ~dims in
  let in_dim = List.hd dims in
  let center = Array.init in_dim (fun _ -> Rng.range rng (-0.5) 0.5) in
  let region = Region.linf_ball ~center ~eps () in
  let out_dim = List.nth dims (List.length dims - 1) in
  let label = Network.predict net center in
  let property = Property.robustness ~num_classes:out_dim ~label in
  Problem.create ~network:net ~region ~property ()

(* Under a 300-call budget: deep-s1/s14 time out in every engine (the
   ab-crown attack misses them); flat-s0 verifies with exact leaves and a
   certificate; the rest falsify in some engines and time out in others,
   inputsplit's deep-s9 after 264 calls. *)
let problems =
  let family name ~dims ~eps seeds =
    List.map
      (fun seed -> (Printf.sprintf "%s-s%d" name seed, random_problem ~seed ~dims ~eps))
      seeds
  in
  family "deep" ~dims:[ 3; 6; 6; 6; 2 ] ~eps:0.5 [ 1; 3; 8; 9; 12; 14; 16; 18 ]
  @ family "flat" ~dims:[ 2; 6; 2 ] ~eps:0.35 [ 0; 2 ]
  @ family "wide" ~dims:[ 4; 8; 8; 2 ] ~eps:0.4 [ 2; 4 ]

let budget () = Budget.of_calls 300

let plain run p = (run p, None)

let engines =
  [ ("bfs", plain (fun p -> Bfs.verify ~budget:(budget ()) ~domains:1 p));
    ("bfs-cert", fun p -> Bfs.verify_with_certificate ~budget:(budget ()) ~domains:1 p);
    ("bestfirst", plain (fun p -> Bestfirst.verify ~budget:(budget ()) ~domains:1 p));
    ( "ab-crown",
      plain (fun p -> Abonn_crown.Alphabeta.verify ~budget:(budget ()) ~domains:1 p) );
    ("abonn-ucb1", plain (fun p -> Abonn.verify ~budget:(budget ()) ~domains:1 p));
    ( "abonn-random",
      plain (fun p ->
          Abonn.verify
            ~config:(Config.make ~selection:(Config.Uniform_random 7) ())
            ~budget:(budget ()) ~domains:1 p) );
    ("inputsplit", plain (fun p -> Inputsplit.verify ~budget:(budget ()) ~domains:1 p)) ]

(* Everything that depends on the clock: the sampler's events and
   counter, and the time fields of the other events. *)
let timing_fields = [ "seq"; "t"; "elapsed"; "wall"; "cpu" ]

let untimed env =
  match Event.parse_fields (Event.to_json env) with
  | Error msg -> Alcotest.failf "unparsable event: %s" msg
  | Ok fields ->
    String.concat ","
      (List.map
         (fun (k, v) ->
           let v =
             if List.mem k timing_fields then "0"
             else
               match v with
               | Event.S s -> Event.json_string s
               | Event.I i -> string_of_int i
               | Event.F f -> Printf.sprintf "%h" f
               | Event.B b -> string_of_bool b
           in
           k ^ "=" ^ v)
         fields)

let counts names =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun n ->
      Hashtbl.replace tbl n (1 + Option.value ~default:0 (Hashtbl.find_opt tbl n)))
    names;
  Hashtbl.fold (fun n c acc -> Printf.sprintf "%s:%d" n c :: acc) tbl []
  |> List.sort compare |> String.concat ","

let leaves = function
  | None -> "-"
  | Some cert ->
    let leaf l =
      Printf.sprintf "%s/%h/%b" (Split.to_string l.Certificate.gamma) l.Certificate.phat
        l.Certificate.by_exact
    in
    Printf.sprintf "%d:%s" (Certificate.num_leaves cert)
      (Digest.to_hex
         (Digest.string (String.concat ";" (List.map leaf cert.Certificate.leaves))))

(* One run rendered as its fixture line; also checks that sequential
   envelopes carry no domain tag. *)
let pinned_line id run problem =
  let sink, dump = Sink.memory () in
  let was_enabled = Metrics.enabled () in
  Metrics.reset ();
  Metrics.set_enabled true;
  let (r, cert), snap =
    Fun.protect
      ~finally:(fun () ->
        Metrics.reset ();
        Metrics.set_enabled was_enabled)
      (fun () ->
        let out =
          Introspect.with_rate (Some 1) (fun () ->
              Obs.with_sink sink (fun () -> run problem))
        in
        (out, Metrics.snapshot ()))
  in
  let events =
    List.filter
      (fun e ->
        match e.Event.event with Event.Resource_sample _ -> false | _ -> true)
      (dump ())
  in
  List.iter
    (fun e ->
      if e.Event.domain <> None then Alcotest.failf "%s: sequential envelope tagged" id)
    events;
  let counters =
    List.filter_map
      (fun (k, v) ->
        if k = "resource.samples" then None else Some (Printf.sprintf "%s:%d" k v))
      snap.Metrics.counters
  in
  let hists =
    List.map
      (fun (k, h) -> Printf.sprintf "%s:%d:%h" k h.Metrics.count h.Metrics.sum)
      snap.Metrics.hists
  in
  let s = r.Result.stats in
  String.concat " "
    [ id;
      "verdict=" ^ Verdict.to_string r.Result.verdict;
      Printf.sprintf "calls=%d nodes=%d depth=%d" s.Result.appver_calls s.Result.nodes
        s.Result.max_depth;
      "leaves=" ^ leaves cert;
      "counters=" ^ String.concat "," counters;
      "hists=" ^ String.concat "," hists;
      "events=" ^ counts (List.map (fun e -> Event.name e.Event.event) events);
      "digest="
      ^ Digest.to_hex (Digest.string (String.concat "\n" (List.map untimed events))) ]

let read_fixture () =
  let ic = open_in fixture in
  let rec go acc =
    match input_line ic with
    | line ->
      (match String.index_opt line ' ' with
       | Some i -> go ((String.sub line 0 i, line) :: acc)
       | None -> go acc)
    | exception End_of_file ->
      close_in ic;
      acc
  in
  go []

let test_streams_pinned () =
  let expected = read_fixture () in
  let fresh =
    List.concat_map
      (fun (engine, run) ->
        List.map
          (fun (pname, problem) ->
            let id = engine ^ "/" ^ pname in
            (id, pinned_line id run problem))
          problems)
      engines
  in
  let mismatched =
    List.filter (fun (id, line) -> List.assoc_opt id expected <> Some line) fresh
  in
  List.iter (fun (_, line) -> print_endline line) mismatched;
  Alcotest.(check int) "runs that differ from their fixture line (fresh lines above)" 0
    (List.length mismatched)

let suite =
  [ ( "engines",
      [ Alcotest.test_case "sequential streams pinned" `Quick test_streams_pinned ] ) ]
