(* Fuzzing subsystem tests: committed-corpus replay, generator
   determinism, shrinking, and repro round-trips (lib/check). *)

module Rng = Abonn_util.Rng
module Vector = Abonn_tensor.Vector
module Network = Abonn_nn.Network
module Problem = Abonn_spec.Problem
module Problem_file = Abonn_spec.Problem_file
module Gen = Abonn_check.Gen
module Oracle = Abonn_check.Oracle
module Shrink = Abonn_check.Shrink
module Finding = Abonn_check.Finding
module Fuzz_campaign = Abonn_check.Fuzz_campaign

let corpus_dir = "fixtures/fuzz"
let manifest = Filename.concat corpus_dir "corpus.txt"

let read_manifest () =
  let ic = open_in manifest in
  let rec go acc =
    match input_line ic with
    | line ->
      let entry =
        match String.split_on_char ' ' (String.trim line) with
        | [ file; family; seed ] -> (
          match Oracle.family_of_string family with
          | Some f -> (file, f, int_of_string seed)
          | None -> Alcotest.failf "corpus.txt: unknown family %S" family)
        | _ -> Alcotest.failf "corpus.txt: malformed line %S" line
      in
      go (entry :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

(* Every committed fixture must replay through its oracle family and
   pass: the corpus pins today's cross-engine/bound/certificate
   behaviour on minimized real cases. *)
let test_corpus_replays () =
  let entries = read_manifest () in
  Alcotest.(check bool) "corpus covers every oracle family" true
    (List.for_all
       (fun family -> List.exists (fun (_, f, _) -> f = family) entries)
       Oracle.all_families);
  Alcotest.(check bool) "at least 5 fixtures" true (List.length entries >= 5);
  List.iter
    (fun (file, family, seed) ->
      let path = Filename.concat corpus_dir file in
      match Fuzz_campaign.replay_file ~seed ~family path with
      | Oracle.Pass -> ()
      | Oracle.Fail f ->
        Alcotest.failf "%s: %s failed %s: %s" file (Oracle.family_name family)
          f.Oracle.check f.Oracle.detail)
    (read_manifest ())

(* Same campaign seed and index → byte-identical case: descriptions
   match and the networks agree on a probe input. *)
let test_generator_deterministic () =
  for index = 0 to 19 do
    let a = Gen.case ~seed:99 ~index and b = Gen.case ~seed:99 ~index in
    Alcotest.(check string) "descr" a.Gen.descr b.Gen.descr;
    Alcotest.(check int) "seed" a.Gen.seed b.Gen.seed;
    let region = a.Gen.problem.Problem.region in
    let x = Abonn_spec.Region.center region in
    let ya = Network.forward a.Gen.problem.Problem.network x in
    let yb = Network.forward b.Gen.problem.Problem.network x in
    Alcotest.(check bool) "same outputs" true (Vector.approx_equal ya yb)
  done;
  (* distinct indices give distinct cases (no accidental seed reuse) *)
  let s0 = Gen.case_seed ~seed:99 ~index:0 and s1 = Gen.case_seed ~seed:99 ~index:1 in
  Alcotest.(check bool) "case seeds differ" true (s0 <> s1)

(* Greedy shrinking under a synthetic predicate converges to a minimal
   problem that still satisfies the predicate. *)
let test_shrink_converges () =
  let case = Gen.case ~seed:4242 ~index:0 in
  let failing p = Problem.num_relus p >= 1 in
  let minimized = Shrink.minimize ~failing case.Gen.problem in
  Alcotest.(check bool) "still failing" true (failing minimized);
  (* the structural floor is one neuron per hidden layer *)
  let hidden_layers =
    Array.length minimized.Problem.affine.Abonn_nn.Affine.weights - 1
  in
  Alcotest.(check int) "one relu per hidden layer" hidden_layers
    (Problem.num_relus minimized);
  Alcotest.(check bool) "no larger than the original" true
    (Problem.num_relus minimized <= Problem.num_relus case.Gen.problem)

(* A shrink candidate list never proposes the problem itself, so the
   minimizer cannot loop. *)
let test_shrink_strictly_smaller () =
  let case = Gen.case ~seed:7 ~index:3 in
  let size (p : Problem.t) =
    Problem.num_relus p
    + Abonn_spec.Property.num_constraints p.Problem.property
    + int_of_float (1e6 *. Vector.max_elt (Abonn_spec.Region.radius p.Problem.region))
  in
  List.iter
    (fun c -> Alcotest.(check bool) "candidate smaller" true (size c < size case.Gen.problem))
    (Shrink.candidates case.Gen.problem)

(* Save as a problem file plus ONNX network → reload → identical
   network behaviour and margins: the guarantee findings rely on for
   replayability. *)
let test_roundtrip () =
  let case = Gen.case ~seed:11 ~index:5 in
  let dir = Filename.temp_file "abonn-fuzz-test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let problem_path = Filename.concat dir "case.problem" in
  let network_path = Filename.concat dir "case.onnx" in
  Problem_file.save case.Gen.problem ~network_path problem_path;
  let reloaded = Problem_file.load problem_path in
  let rng = Rng.create 5 in
  for _ = 1 to 20 do
    let x = Abonn_spec.Region.sample rng case.Gen.problem.Problem.region in
    let m0 = Problem.concrete_margin case.Gen.problem x in
    let m1 = Problem.concrete_margin reloaded x in
    Alcotest.(check (float 0.0)) "margin round-trips exactly" m0 m1
  done;
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir

(* Finding JSONL lines follow the trace wire conventions: parseable
   key-value object with the fuzz_finding discriminator and escaped
   strings. *)
let test_finding_json () =
  let f =
    { Finding.case_index = 3; case_seed = 42; family = Oracle.Bounds;
      check = "bounds.phat-unsound"; detail = "quote \" and\nnewline";
      descr = "mlp[2;2]"; relus = 2; relus_minimized = Some 1;
      repro = Some "/tmp/x.problem"; roundtrip_ok = Some true }
  in
  let contains_sub hay needle =
    let n = String.length needle and h = String.length hay in
    let rec at i = i + n <= h && (String.sub hay i n = needle || at (i + 1)) in
    at 0
  in
  let json = Finding.to_json f in
  Alcotest.(check bool) "has discriminator" true
    (contains_sub json "\"ev\":\"fuzz_finding\"");
  Alcotest.(check bool) "escapes quotes" true
    (contains_sub json "quote \\\" and\\nnewline");
  Alcotest.(check bool) "single line" true (not (String.contains json '\n'))

(* A tiny end-to-end campaign on the PR path: a handful of cases across
   every family must come back clean. *)
let test_small_campaign_clean () =
  let cfg = { Fuzz_campaign.default with Fuzz_campaign.seed = 13; cases = 8 } in
  let outcome = Fuzz_campaign.run cfg in
  Alcotest.(check int) "cases" 8 outcome.Fuzz_campaign.cases_run;
  Alcotest.(check int) "checks" (8 * List.length Oracle.all_families)
    outcome.Fuzz_campaign.checks_run;
  (match outcome.Fuzz_campaign.findings with
   | [] -> ()
   | f :: _ ->
     Alcotest.failf "unexpected finding: %s"
       (Format.asprintf "%a" Finding.pp f))

let suite =
  [ ( "fuzz",
      [ Alcotest.test_case "committed corpus replays clean" `Quick test_corpus_replays;
        Alcotest.test_case "generator is deterministic" `Quick test_generator_deterministic;
        Alcotest.test_case "shrinking converges to minimal" `Quick test_shrink_converges;
        Alcotest.test_case "shrink candidates strictly smaller" `Quick
          test_shrink_strictly_smaller;
        Alcotest.test_case "problem files round-trip margins" `Quick test_roundtrip;
        Alcotest.test_case "finding JSONL format" `Quick test_finding_json;
        Alcotest.test_case "small campaign finds nothing" `Quick test_small_campaign_clean
      ] )
  ]
