(* Conformance tests for the problem-ingestion front-end (docs/FORMATS.md):
   golden-corpus byte stability and parse equivalence, ONNX and VNNLIB
   round-trips, the native-vs-ONNX+VNNLIB differential battery on all
   four engines (sequential and 4-domain), and malformed-input
   positioning. *)

module Rng = Abonn_util.Rng
module Parse_error = Abonn_util.Parse_error
module Budget = Abonn_util.Budget
module Network = Abonn_nn.Network
module Builder = Abonn_nn.Builder
module Onnx = Abonn_nn.Onnx
module Vnnlib = Abonn_spec.Vnnlib
module Verdict = Abonn_spec.Verdict
module Problem = Abonn_spec.Problem
module Region = Abonn_spec.Region
module Result = Abonn_bab.Result
module Acas = Abonn_data.Acas
module Corpus = Abonn_check.Formats_corpus

let fixtures_dir = Filename.concat "fixtures" "formats"
let fixture name = Filename.concat fixtures_dir name
let malformed name = fixture (Filename.concat "malformed" name)

let contains_substring haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

(* deterministic probe points spanning [lo, hi]^dim *)
let probes ~dim ~lo ~hi n =
  let rng = Rng.create 2024 in
  List.init n (fun _ -> Array.init dim (fun _ -> Rng.range rng lo hi))

let max_forward_diff a b points =
  List.fold_left
    (fun acc x ->
      let ya = Network.forward a x and yb = Network.forward b x in
      Array.fold_left max acc (Array.mapi (fun i v -> abs_float (v -. yb.(i))) ya))
    0.0 points

(* --- golden corpus ------------------------------------------------- *)

let test_corpus_byte_stable () =
  match Corpus.check_dir fixtures_dir with
  | [] -> ()
  | mismatches ->
    Alcotest.failf "corpus not byte-stable: %s"
      (String.concat ", "
         (List.map (fun (n, r) -> Printf.sprintf "%s (%s)" n r) mismatches))

let test_corpus_parse_equivalence () =
  (* every committed network fixture parses back to the recipe network *)
  let checks =
    [ ("mlp_gemm.onnx", Corpus.mlp (), 0.0);
      ("mlp_matmul_add.onnx", Corpus.mlp (), 0.0);
      ("mlp_f32.onnx", Corpus.mlp (), 1e-5);
      ("conv_small.onnx", Corpus.conv (), 0.0);
      ("acas_tiny.onnx", Corpus.acas_net (), 0.0) ]
  in
  List.iter
    (fun (name, expected, tol) ->
      let loaded = Onnx.load (fixture name) in
      Alcotest.(check int)
        (name ^ " input dim") (Network.input_dim expected) (Network.input_dim loaded);
      let points = probes ~dim:(Network.input_dim expected) ~lo:(-1.0) ~hi:1.0 16 in
      let diff = max_forward_diff expected loaded points in
      if diff > tol then
        Alcotest.failf "%s: forward diff %g exceeds %g" name diff tol)
    checks;
  (* hand-written VNNLIB fixtures lower to the expected structures *)
  let simple = Vnnlib.load (fixture "box_simple.vnnlib") in
  Alcotest.(check int) "simple inputs" 3 simple.Vnnlib.num_inputs;
  Alcotest.(check int) "simple outputs" 2 simple.Vnnlib.num_outputs;
  Alcotest.(check (float 0.0)) "simple lower" (-0.5) simple.Vnnlib.lower.(0);
  Alcotest.(check (float 0.0)) "simple upper" 0.25 simple.Vnnlib.upper.(2);
  (match simple.Vnnlib.disjuncts with
   | [ [ { Vnnlib.coeffs; offset } ] ] ->
     Alcotest.(check (array (float 0.0))) "simple coeffs" [| -1.0; 0.0 |] coeffs;
     Alcotest.(check (float 0.0)) "simple offset" 1.5 offset
   | _ -> Alcotest.fail "box_simple: expected one single-literal disjunct");
  let conj = Vnnlib.load (fixture "conjunctive.vnnlib") in
  (match conj.Vnnlib.disjuncts with
   | [ [ _; _ ] ] -> ()
   | _ -> Alcotest.fail "conjunctive: expected one 2-literal disjunct");
  let disj = Vnnlib.load (fixture "disjunctive.vnnlib") in
  Alcotest.(check (list int))
    "disjunctive shape" [ 2; 1; 1 ]
    (List.map List.length disj.Vnnlib.disjuncts);
  (* printer-emitted fixtures equal their recipes exactly *)
  Alcotest.(check bool) "acas_prop1 equal" true
    (Vnnlib.load (fixture "acas_prop1.vnnlib") = Corpus.acas_p1 ());
  Alcotest.(check bool) "acas_prop2 equal" true
    (Vnnlib.load (fixture "acas_prop2.vnnlib") = Corpus.acas_p2 ())

(* --- round-trips --------------------------------------------------- *)

let test_onnx_roundtrip () =
  let nets =
    [ ("mlp", Builder.mlp (Rng.create 31) ~dims:[ 4; 10; 7; 3 ]);
      ("deep", Builder.mlp (Rng.create 32) ~dims:[ 2; 5; 5; 5; 2 ]);
      ("conv", Corpus.conv ());
      ("acas", Corpus.acas_net ()) ]
  in
  List.iter
    (fun (name, net) ->
      List.iter
        (fun (style_name, style) ->
          let bytes = Onnx.to_bytes ~style net in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s deterministic" name style_name)
            true
            (String.equal bytes (Onnx.to_bytes ~style net));
          let reparsed = Onnx.of_bytes bytes in
          let points =
            probes ~dim:(Network.input_dim net) ~lo:(-1.0) ~hi:1.0 16
          in
          let diff = max_forward_diff net reparsed points in
          if diff > 1e-9 then
            Alcotest.failf "%s/%s: round-trip diff %g exceeds 1e-9" name
              style_name diff;
          (* the writer is a fixpoint of parse . print *)
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s reprint fixpoint" name style_name)
            true
            (String.equal bytes (Onnx.to_bytes ~style reparsed)))
        [ ("gemm", Onnx.Gemm); ("matmul_add", Onnx.Matmul_add) ])
    nets

let test_vnnlib_roundtrip () =
  let specs =
    Vnnlib.
      [ ("box_simple", load (fixture "box_simple.vnnlib"));
        ("conjunctive", load (fixture "conjunctive.vnnlib"));
        ("disjunctive", load (fixture "disjunctive.vnnlib")) ]
    @ List.map
        (fun pid ->
          ( "acas_" ^ Acas.property_name pid,
            Acas.spec ~network:(Corpus.acas_net ()) ~seed:3 pid ))
        Acas.property_ids
  in
  List.iter
    (fun (name, spec) ->
      let reparsed = Vnnlib.parse (Vnnlib.to_string spec) in
      Alcotest.(check bool) (name ^ " exact round-trip") true (spec = reparsed))
    specs;
  (* property -> VNNLIB -> parse is exact through of_problem too *)
  let problem = Acas.problem ~hidden_layers:2 ~width:8 ~seed:2 Acas.P1 in
  let spec = Vnnlib.of_problem problem in
  Alcotest.(check bool) "of_problem round-trip" true
    (spec = Vnnlib.parse (Vnnlib.to_string spec))

let test_gadget_exact () =
  (* the max-gadget network computes exactly max_i (c_i . y + k_i) *)
  let net = Corpus.acas_net () in
  List.iter
    (fun pid ->
      let spec = Acas.spec ~network:net ~seed:1 pid in
      let problem = List.hd (Vnnlib.problems ~network:net spec) in
      let literals = List.hd spec.Vnnlib.disjuncts in
      let region = Region.create ~lower:spec.Vnnlib.lower ~upper:spec.Vnnlib.upper in
      let rng = Rng.create 99 in
      for _ = 1 to 32 do
        let x = Region.sample rng region in
        let y = Network.forward net x in
        let expected =
          List.fold_left
            (fun acc { Vnnlib.coeffs; offset } ->
              let g = ref offset in
              Array.iteri (fun i c -> g := !g +. (c *. y.(i))) coeffs;
              max acc !g)
            neg_infinity literals
        in
        let got = (Network.forward problem.Problem.network x).(0) in
        if abs_float (expected -. got) > 1e-10 then
          Alcotest.failf "%s gadget: expected %.17g got %.17g"
            (Acas.property_name pid) expected got
      done)
    [ Acas.P2; Acas.P3 ]

(* --- differential battery ------------------------------------------ *)

let engines =
  [ ("bfs", fun ~domains ~budget p -> (Abonn_bab.Bfs.verify ~domains ~budget p).Result.verdict);
    ( "bestfirst",
      fun ~domains ~budget p ->
        (Abonn_bab.Bestfirst.verify ~domains ~budget p).Result.verdict );
    ( "abonn",
      fun ~domains ~budget p ->
        (Abonn_core.Abonn.verify ~domains ~budget p).Result.verdict );
    ( "inputsplit",
      fun ~domains ~budget p ->
        (Abonn_bab.Inputsplit.verify ~domains ~budget p).Result.verdict ) ]

let verdict_kind = function
  | Verdict.Verified -> "verified"
  | Verdict.Falsified _ -> "falsified"
  | Verdict.Timeout -> "timeout"

(* The same ACAS-style instance reaches the engines twice: built
   natively in-process, and serialized to ONNX + VNNLIB and read back.
   Complete runs have deterministic verdicts (docs/PARALLELISM.md), so
   the kinds must match engine by engine; counterexamples must validate
   on the problem that produced them. *)
let differential_battery ~domains () =
  List.iter
    (fun pid ->
      let native = Acas.problem ~hidden_layers:2 ~width:8 ~seed:1 pid in
      let net = Acas.network ~hidden_layers:2 ~width:8 ~seed:1 () in
      let spec = Acas.spec ~network:net ~seed:1 pid in
      (* through the wire formats *)
      let net' = Onnx.of_bytes (Onnx.to_bytes net) in
      let spec' = Vnnlib.parse (Vnnlib.to_string spec) in
      let format_problems = Vnnlib.problems ~network:net' spec' in
      List.iter
        (fun (engine_name, run) ->
          let budget () = Budget.of_calls 4000 in
          let native_verdict = run ~domains ~budget:(budget ()) native in
          let format_verdict =
            Vnnlib.join_verdicts
              (List.map (fun p -> run ~domains ~budget:(budget ()) p) format_problems)
          in
          let label =
            Printf.sprintf "%s/%s/d%d" (Acas.property_name pid) engine_name domains
          in
          if verdict_kind native_verdict = "timeout" then
            Alcotest.failf "%s: native run did not decide" label;
          Alcotest.(check string) label
            (verdict_kind native_verdict) (verdict_kind format_verdict);
          (match Verdict.counterexample native_verdict with
           | Some x ->
             Alcotest.(check bool) (label ^ " native cex") true
               (Problem.is_counterexample native x)
           | None -> ());
          match Verdict.counterexample format_verdict with
          | Some x ->
            (* a witness from any disjunct problem lives in the same
               input region and violates its own (exact) property *)
            Alcotest.(check bool) (label ^ " format cex valid") true
              (List.exists (fun p -> Problem.is_counterexample p x) format_problems)
          | None -> ())
        engines)
    [ Acas.P1; Acas.P3 ]

let test_differential_sequential () = differential_battery ~domains:1 ()
let test_differential_domains4 () = differential_battery ~domains:4 ()

(* --- malformed inputs ---------------------------------------------- *)

let expect_parse_error ~what f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Parse_error.Error" what
  | exception Parse_error.Error e -> e
  | exception other ->
    Alcotest.failf "%s: expected Parse_error.Error, got %s" what
      (Printexc.to_string other)

let test_malformed_onnx () =
  let byte_pos e =
    match e.Parse_error.pos with
    | Parse_error.Byte { offset } -> offset
    | Parse_error.Line _ ->
      Alcotest.fail "ONNX errors must carry byte offsets"
  in
  let e =
    expect_parse_error ~what:"truncated.onnx" (fun () ->
        Onnx.load (malformed "truncated.onnx"))
  in
  Alcotest.(check bool) "truncated offset sane" true (byte_pos e >= 0);
  let e =
    expect_parse_error ~what:"badwire.onnx" (fun () ->
        Onnx.load (malformed "badwire.onnx"))
  in
  ignore (byte_pos e);
  Alcotest.(check bool) "badwire mentions wire type" true
    (contains_substring (Parse_error.to_string e) "wire type");
  let e =
    expect_parse_error ~what:"unknown_op.onnx" (fun () ->
        Onnx.load (malformed "unknown_op.onnx"))
  in
  Alcotest.(check string) "unknown op token" "Gelu" e.Parse_error.token;
  (* a handful of synthesized corruptions: never a crash, always positioned *)
  let base = Onnx.to_bytes (Corpus.mlp ()) in
  for cut = 1 to 24 do
    ignore
      (expect_parse_error ~what:(Printf.sprintf "cut at %d" cut) (fun () ->
           Onnx.of_bytes (String.sub base 0 cut)))
  done;
  ignore
    (expect_parse_error ~what:"ff varint" (fun () ->
         Onnx.of_bytes "\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff"))

let test_malformed_vnnlib () =
  let line_pos e =
    match e.Parse_error.pos with
    | Parse_error.Line { line; col } -> (line, col)
    | Parse_error.Byte _ -> Alcotest.fail "VNNLIB errors must carry line/column"
  in
  let e =
    expect_parse_error ~what:"unbalanced.vnnlib" (fun () ->
        Vnnlib.load (malformed "unbalanced.vnnlib"))
  in
  let line, col = line_pos e in
  Alcotest.(check bool) "unbalanced position sane" true (line >= 1 && col >= 1);
  let e =
    expect_parse_error ~what:"unknown_op.vnnlib" (fun () ->
        Vnnlib.load (malformed "unknown_op.vnnlib"))
  in
  Alcotest.(check string) "unknown op token" "pow" e.Parse_error.token;
  Alcotest.(check bool) "line 5" true (fst (line_pos e) = 5);
  let e =
    expect_parse_error ~what:"nonfinite.vnnlib" (fun () ->
        Vnnlib.load (malformed "nonfinite.vnnlib"))
  in
  Alcotest.(check string) "non-finite token" "inf" e.Parse_error.token;
  Alcotest.(check (pair int int)) "non-finite at 7:17" (7, 17) (line_pos e);
  (* an index past the declared count fails at its declaration, before
     the reader sizes an array by it *)
  let e =
    expect_parse_error ~what:"index_gap.vnnlib" (fun () ->
        Vnnlib.load (malformed "index_gap.vnnlib"))
  in
  Alcotest.(check string) "gap token" "Y_42949672952" e.Parse_error.token;
  Alcotest.(check (pair int int)) "gap at 12:16" (12, 16) (line_pos e);
  (* inline malformations *)
  let cases =
    [ ("missing bound", "(declare-const X_0 Real)\n(declare-const Y_0 Real)\n(assert (<= X_0 1.0))\n(assert (<= Y_0 0.0))\n");
      ("mixed vars", "(declare-const X_0 Real)\n(declare-const Y_0 Real)\n(assert (>= X_0 0.0))\n(assert (<= X_0 1.0))\n(assert (<= (+ X_0 Y_0) 0.0))\n");
      ("undeclared", "(declare-const X_0 Real)\n(declare-const Y_0 Real)\n(assert (>= X_0 0.0))\n(assert (<= X_0 1.0))\n(assert (<= Y_3 0.0))\n");
      ("no outputs", "(declare-const X_0 Real)\n(declare-const Y_0 Real)\n(assert (>= X_0 0.0))\n(assert (<= X_0 1.0))\n");
      ("stray close", "(declare-const X_0 Real))\n");
      ("input index gap",
       "(declare-const X_0 Real)\n(declare-const X_2 Real)\n(declare-const Y_0 Real)\n(assert (<= Y_0 0.0))\n");
      ("bound under or",
       "(declare-const X_0 Real)\n(declare-const Y_0 Real)\n(assert (or (<= X_0 1.0) (>= X_0 0.0)))\n(assert (<= Y_0 0.0))\n") ]
  in
  List.iter
    (fun (what, text) ->
      ignore (expect_parse_error ~what (fun () -> Vnnlib.parse text)))
    cases

(* A spec whose declarations do not match the network's widths fails at
   the first declaration the network does not have, or at the top when
   it declares too few; without the network the same text parses. *)
let test_vnnlib_network_widths () =
  let net = Onnx.load (fixture "acas_tiny.onnx") in
  let line_col e =
    match e.Parse_error.pos with
    | Parse_error.Line { line; col } -> (line, col)
    | Parse_error.Byte _ -> Alcotest.fail "VNNLIB errors must carry line/column"
  in
  let wide = malformed "wide_outputs.vnnlib" in
  Alcotest.(check int) "parses without the network" 8 (Vnnlib.load wide).Vnnlib.num_outputs;
  let e = expect_parse_error ~what:"wide outputs" (fun () -> Vnnlib.load ~network:net wide) in
  Alcotest.(check string) "first out-of-range output" "Y_5" e.Parse_error.token;
  Alcotest.(check (pair int int)) "at its declaration" (12, 16) (line_col e);
  Alcotest.(check string) "names the file" wide e.Parse_error.source;
  let text = Vnnlib.to_string (Corpus.acas_p1 ()) in
  let e =
    expect_parse_error ~what:"wide inputs" (fun () ->
        Vnnlib.parse ~network:net
          (Corpus.replace_first ~pattern:"(declare-const Y_0 Real)"
             ~by:"(declare-const X_5 Real)\n(declare-const Y_0 Real)" text))
  in
  Alcotest.(check string) "first out-of-range input" "X_5" e.Parse_error.token;
  Alcotest.(check (pair int int)) "at its declaration" (7, 16) (line_col e);
  let e =
    expect_parse_error ~what:"narrow outputs" (fun () ->
        Vnnlib.parse ~network:net
          (Corpus.replace_first ~pattern:"(declare-const Y_4 Real)\n" ~by:"" text))
  in
  Alcotest.(check string) "first missing output" "Y_4" e.Parse_error.token;
  Alcotest.(check bool) "matching spec parses" true
    (Vnnlib.parse ~network:net text = Corpus.acas_p1 ())

(* --- registry schema ----------------------------------------------- *)

let test_registry_source_format () =
  let module Registry = Abonn_trace.Registry in
  let r =
    Registry.make ~ts:"2026-01-01T00:00:00Z" ~commit:"abc" ~peak_rss_bytes:1
      ~source_format:"onnx+vnnlib" ~engine:"bfs" ~model:"m" ~instance:"i" ~seed:0
      ~verdict:"verified" ~wall:0.1 ~calls:1 ~nodes:1 ~max_depth:0 ()
  in
  (match Registry.of_json (Registry.to_json r) with
   | Ok r' ->
     Alcotest.(check string) "round-trip" "onnx+vnnlib" r'.Registry.source_format;
     Alcotest.(check int) "schema" 3 r'.Registry.schema
   | Error msg -> Alcotest.failf "schema-3 line rejected: %s" msg);
  (* a schema-2 line (no source_format) parses as a native run *)
  let legacy =
    "{\"schema\":2,\"ts\":\"2025-01-01T00:00:00Z\",\"commit\":\"abc\",\
     \"engine\":\"bfs\",\"model\":\"m\",\"instance\":\"i\",\"seed\":0,\
     \"domains\":2,\"verdict\":\"verified\",\"wall\":0.100000,\"calls\":1,\
     \"nodes\":1,\"max_depth\":0,\"peak_rss_bytes\":1}"
  in
  match Registry.of_json legacy with
  | Ok r ->
    Alcotest.(check string) "legacy default" "native" r.Registry.source_format;
    Alcotest.(check int) "legacy domains kept" 2 r.Registry.domains
  | Error msg -> Alcotest.failf "schema-2 line rejected: %s" msg

let suite =
  [ ( "formats",
      [ Alcotest.test_case "corpus byte-stable" `Quick test_corpus_byte_stable;
        Alcotest.test_case "corpus parse equivalence" `Quick
          test_corpus_parse_equivalence;
        Alcotest.test_case "onnx round-trip" `Quick test_onnx_roundtrip;
        Alcotest.test_case "vnnlib round-trip" `Quick test_vnnlib_roundtrip;
        Alcotest.test_case "max-gadget exact" `Quick test_gadget_exact;
        Alcotest.test_case "differential battery (sequential)" `Slow
          test_differential_sequential;
        Alcotest.test_case "differential battery (4 domains)" `Slow
          test_differential_domains4;
        Alcotest.test_case "malformed onnx" `Quick test_malformed_onnx;
        Alcotest.test_case "malformed vnnlib" `Quick test_malformed_vnnlib;
        Alcotest.test_case "vnnlib checked against the network" `Quick
          test_vnnlib_network_widths;
        Alcotest.test_case "registry source_format" `Quick
          test_registry_source_format ] ) ]
