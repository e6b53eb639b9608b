(* Tests for Abonn_spec: regions, properties, splits, verdicts, problems. *)

module Matrix = Abonn_tensor.Matrix
module Vector = Abonn_tensor.Vector
module Rng = Abonn_util.Rng
module Region = Abonn_spec.Region
module Property = Abonn_spec.Property
module Split = Abonn_spec.Split
module Verdict = Abonn_spec.Verdict
module Problem = Abonn_spec.Problem
module Layer = Abonn_nn.Layer
module Network = Abonn_nn.Network
module Builder = Abonn_nn.Builder

let check_float = Alcotest.(check (float 1e-9))

(* --- Region --- *)

let test_region_linf_ball () =
  let r = Region.linf_ball ~center:[| 0.5; 0.5 |] ~eps:0.1 () in
  check_float "lower" 0.4 r.Region.lower.(0);
  check_float "upper" 0.6 r.Region.upper.(1)

let test_region_clip () =
  let r = Region.linf_ball ~clip:(0.0, 1.0) ~center:[| 0.05; 0.95 |] ~eps:0.2 () in
  check_float "clipped low" 0.0 r.Region.lower.(0);
  check_float "clipped high" 1.0 r.Region.upper.(1)

let test_region_contains () =
  let r = Region.create ~lower:[| 0.0; 0.0 |] ~upper:[| 1.0; 1.0 |] in
  Alcotest.(check bool) "inside" true (Region.contains r [| 0.5; 0.5 |]);
  Alcotest.(check bool) "boundary" true (Region.contains r [| 0.0; 1.0 |]);
  Alcotest.(check bool) "outside" false (Region.contains r [| 1.5; 0.5 |]);
  Alcotest.(check bool) "wrong dim" false (Region.contains r [| 0.5 |])

let test_region_clamp () =
  let r = Region.create ~lower:[| 0.0 |] ~upper:[| 1.0 |] in
  check_float "clamps" 1.0 (Region.clamp r [| 3.0 |]).(0)

let test_region_center_radius () =
  let r = Region.create ~lower:[| 0.0; -2.0 |] ~upper:[| 1.0; 2.0 |] in
  check_float "center" 0.5 (Region.center r).(0);
  check_float "radius" 2.0 (Region.radius r).(1)

let test_region_rejects_inverted () =
  Alcotest.(check bool) "raises" true
    (try ignore (Region.create ~lower:[| 1.0 |] ~upper:[| 0.0 |]); false
     with Invalid_argument _ -> true)

let test_region_rejects_non_finite () =
  List.iter
    (fun (lower, upper) ->
      Alcotest.(check bool) "raises" true
        (try ignore (Region.create ~lower ~upper); false
         with Invalid_argument _ -> true))
    [ ([| nan |], [| 1.0 |]); ([| 0.0 |], [| infinity |]); ([| neg_infinity |], [| 0.0 |]) ]

let test_region_sample_inside =
  QCheck.Test.make ~name:"region samples lie inside" ~count:100
    QCheck.(pair small_int small_int)
    (fun (a, b) ->
      let lo = float_of_int (min a b) and hi = float_of_int (max a b) +. 1.0 in
      let r = Region.create ~lower:[| lo; lo |] ~upper:[| hi; hi |] in
      let rng = Rng.create (a + (1000 * b)) in
      Region.contains r (Region.sample rng r))

let test_region_corner () =
  let r = Region.create ~lower:[| 0.0; 0.0 |] ~upper:[| 1.0; 2.0 |] in
  let c = Region.corner r (fun i -> i = 1) in
  check_float "corner lo" 0.0 c.(0);
  check_float "corner hi" 2.0 c.(1)

(* --- Property --- *)

let test_property_robustness_margin () =
  let p = Property.robustness ~num_classes:3 ~label:1 in
  Alcotest.(check int) "constraints" 2 (Property.num_constraints p);
  (* y = [0; 2; 1]: margins are 2-0=2 and 2-1=1, min = 1 *)
  check_float "margin" 1.0 (Property.margin p [| 0.0; 2.0; 1.0 |]);
  Alcotest.(check bool) "satisfied" true (Property.satisfied p [| 0.0; 2.0; 1.0 |]);
  Alcotest.(check bool) "violated" true (Property.violated p [| 3.0; 2.0; 1.0 |])

let test_property_margin_tie_is_violation () =
  let p = Property.robustness ~num_classes:2 ~label:0 in
  Alcotest.(check bool) "tie violates" true (Property.violated p [| 1.0; 1.0 |])

let test_property_single () =
  (* The running example of Fig. 1: O + 2.5 > 0. *)
  let p = Property.single [| 1.0 |] 2.5 in
  check_float "margin" 0.5 (Property.margin p [| -2.0 |]);
  Alcotest.(check bool) "violated at -3" true (Property.violated p [| -3.0 |])

let test_property_rejects_bad_label () =
  Alcotest.(check bool) "raises" true
    (try ignore (Property.robustness ~num_classes:3 ~label:3); false
     with Invalid_argument _ -> true)

(* --- Split --- *)

let test_split_extend_and_lookup () =
  let g = Split.extend [] ~relu:3 ~phase:Split.Active in
  let g = Split.extend g ~relu:7 ~phase:Split.Inactive in
  Alcotest.(check int) "depth" 2 (Split.depth g);
  Alcotest.(check bool) "lookup active" true
    (Split.constrained g ~relu:3 = Some Split.Active);
  Alcotest.(check bool) "lookup missing" true (Split.constrained g ~relu:5 = None)

let test_split_rejects_duplicate () =
  let g = Split.extend [] ~relu:3 ~phase:Split.Active in
  Alcotest.(check bool) "raises" true
    (try ignore (Split.extend g ~relu:3 ~phase:Split.Inactive); false
     with Invalid_argument _ -> true)

let test_split_opposite () =
  Alcotest.(check bool) "opposite" true
    (Split.phase_equal (Split.opposite Split.Active) Split.Inactive)

let test_split_to_string () =
  Alcotest.(check string) "root" "ε" (Split.to_string []);
  let g = Split.extend [] ~relu:3 ~phase:Split.Active in
  Alcotest.(check string) "one split" "r3+" (Split.to_string g)

let test_split_of_string_round_trip () =
  let gammas =
    [ [];
      Split.extend [] ~relu:3 ~phase:Split.Active;
      Split.extend
        (Split.extend [] ~relu:3 ~phase:Split.Active)
        ~relu:17 ~phase:Split.Inactive ]
  in
  List.iter
    (fun g ->
      let s = Split.to_string g in
      Alcotest.(check string) ("round trip " ^ s) s
        (Split.to_string (Split.of_string s)))
    gammas;
  List.iter
    (fun s ->
      Alcotest.(check bool) ("rejects " ^ s) true
        (try ignore (Split.of_string s); false
         with Invalid_argument _ -> true))
    [ "r3"; "r+"; "bogus"; "r3+."; "r3+.r3x" ]

let test_split_satisfied_by () =
  (* Identity-ish net: 1 -> 1 -> 1 with weight 1.  relu 0 is active iff x >= 0. *)
  let w = Matrix.identity 1 in
  let net = Network.create [ Layer.linear w [| 0.0 |]; Layer.Relu 1; Layer.linear w [| 0.0 |] ] in
  let affine = Abonn_nn.Affine.of_network net in
  let g_act = Split.extend [] ~relu:0 ~phase:Split.Active in
  let g_inact = Split.extend [] ~relu:0 ~phase:Split.Inactive in
  Alcotest.(check bool) "positive input active" true (Split.satisfied_by affine g_act [| 1.0 |]);
  Alcotest.(check bool) "positive not inactive" false
    (Split.satisfied_by affine g_inact [| 1.0 |]);
  Alcotest.(check bool) "negative inactive" true (Split.satisfied_by affine g_inact [| -1.0 |])

(* --- Verdict --- *)

let test_verdict_predicates () =
  Alcotest.(check bool) "verified" true (Verdict.is_verified Verdict.Verified);
  Alcotest.(check bool) "falsified" true (Verdict.is_falsified (Verdict.Falsified [| 0.0 |]));
  Alcotest.(check bool) "timeout" true (Verdict.is_timeout Verdict.Timeout);
  Alcotest.(check bool) "solved" true (Verdict.is_solved Verdict.Verified);
  Alcotest.(check bool) "timeout unsolved" false (Verdict.is_solved Verdict.Timeout)

let test_verdict_counterexample () =
  Alcotest.(check bool) "extracts" true
    (Verdict.counterexample (Verdict.Falsified [| 1.0 |]) = Some [| 1.0 |]);
  Alcotest.(check bool) "none" true (Verdict.counterexample Verdict.Verified = None)

let test_verdict_to_string () =
  Alcotest.(check string) "verified" "verified" (Verdict.to_string Verdict.Verified);
  Alcotest.(check string) "timeout" "timeout" (Verdict.to_string Verdict.Timeout)

(* --- Problem --- *)

let robust_problem () =
  let rng = Rng.create 9 in
  let net = Builder.mlp rng ~dims:[ 2; 4; 2 ] in
  let region = Region.linf_ball ~center:[| 0.2; -0.1 |] ~eps:0.05 () in
  let property = Property.robustness ~num_classes:2 ~label:0 in
  Problem.create ~network:net ~region ~property ()

let test_problem_create () =
  let p = robust_problem () in
  Alcotest.(check int) "relus" 4 (Problem.num_relus p)

let test_problem_rejects_region_mismatch () =
  let rng = Rng.create 9 in
  let net = Builder.mlp rng ~dims:[ 2; 4; 2 ] in
  let region = Region.linf_ball ~center:[| 0.0; 0.0; 0.0 |] ~eps:0.1 () in
  let property = Property.robustness ~num_classes:2 ~label:0 in
  Alcotest.(check bool) "raises" true
    (try ignore (Problem.create ~network:net ~region ~property ()); false
     with Invalid_argument _ -> true)

let test_problem_counterexample_check () =
  (* Single output O = x; property O - 0.5 > 0; region [0,1].
     x = 0.2 is a counterexample; x = 0.9 is not; x = 2 is outside. *)
  let w = Matrix.identity 1 in
  let net = Network.create [ Layer.linear w [| 0.0 |]; Layer.Relu 1; Layer.linear w [| 0.0 |] ] in
  let region = Region.create ~lower:[| 0.0 |] ~upper:[| 1.0 |] in
  let property = Property.single [| 1.0 |] (-0.5) in
  let p = Problem.create ~network:net ~region ~property () in
  Alcotest.(check bool) "cex" true (Problem.is_counterexample p [| 0.2 |]);
  Alcotest.(check bool) "not cex" false (Problem.is_counterexample p [| 0.9 |]);
  Alcotest.(check bool) "outside region" false (Problem.is_counterexample p [| 2.0 |])

let test_problem_of_affine_roundtrip () =
  let rng = Rng.create 21 in
  let net = Builder.mlp rng ~dims:[ 2; 3; 2 ] in
  let affine = Abonn_nn.Affine.of_network net in
  let region = Region.linf_ball ~center:[| 0.0; 0.0 |] ~eps:0.1 () in
  let property = Property.robustness ~num_classes:2 ~label:0 in
  let p = Problem.of_affine ~affine ~region ~property () in
  let x = [| 0.05; -0.03 |] in
  Alcotest.(check bool) "reconstructed network agrees" true
    (Vector.approx_equal ~tol:1e-9
       (Network.forward p.Problem.network x)
       (Abonn_nn.Affine.forward affine x))

let qtest = QCheck_alcotest.to_alcotest

let suite =
  [ ( "spec.region",
      [ Alcotest.test_case "linf ball" `Quick test_region_linf_ball;
        Alcotest.test_case "clip" `Quick test_region_clip;
        Alcotest.test_case "contains" `Quick test_region_contains;
        Alcotest.test_case "clamp" `Quick test_region_clamp;
        Alcotest.test_case "center/radius" `Quick test_region_center_radius;
        Alcotest.test_case "rejects inverted" `Quick test_region_rejects_inverted;
        Alcotest.test_case "rejects non-finite" `Quick test_region_rejects_non_finite;
        Alcotest.test_case "corner" `Quick test_region_corner;
        qtest test_region_sample_inside
      ] );
    ( "spec.property",
      [ Alcotest.test_case "robustness margin" `Quick test_property_robustness_margin;
        Alcotest.test_case "tie violates" `Quick test_property_margin_tie_is_violation;
        Alcotest.test_case "single constraint" `Quick test_property_single;
        Alcotest.test_case "rejects bad label" `Quick test_property_rejects_bad_label
      ] );
    ( "spec.split",
      [ Alcotest.test_case "extend/lookup" `Quick test_split_extend_and_lookup;
        Alcotest.test_case "rejects duplicate" `Quick test_split_rejects_duplicate;
        Alcotest.test_case "opposite" `Quick test_split_opposite;
        Alcotest.test_case "to_string" `Quick test_split_to_string;
        Alcotest.test_case "satisfied_by" `Quick test_split_satisfied_by
      ] );
    ( "spec.verdict",
      [ Alcotest.test_case "predicates" `Quick test_verdict_predicates;
        Alcotest.test_case "counterexample" `Quick test_verdict_counterexample;
        Alcotest.test_case "to_string" `Quick test_verdict_to_string
      ] );
    ( "spec.problem",
      [ Alcotest.test_case "create" `Quick test_problem_create;
        Alcotest.test_case "rejects mismatch" `Quick test_problem_rejects_region_mismatch;
        Alcotest.test_case "counterexample check" `Quick test_problem_counterexample_check;
        Alcotest.test_case "of_affine roundtrip" `Quick test_problem_of_affine_roundtrip
      ] )
  ]

(* --- Problem files --- *)

module Problem_file = Abonn_spec.Problem_file

let sample_problem () =
  let rng = Rng.create 77 in
  let net = Builder.mlp rng ~dims:[ 3; 5; 2 ] in
  let region =
    Region.linf_ball ~clip:(0.0, 1.0) ~center:[| 0.4; 0.5; 0.6 |] ~eps:0.05 ()
  in
  let property = Property.robustness ~num_classes:2 ~label:1 in
  Problem.create ~network:net ~region ~property ()

let test_problem_file_roundtrip () =
  let problem = sample_problem () in
  let dir = Filename.temp_file "abonn_pf" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let net_path = Filename.concat dir "net.onnx" in
  let path = Filename.concat dir "problem.txt" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove net_path;
      Sys.remove path;
      Sys.rmdir dir)
    (fun () ->
      Problem_file.save problem ~network_path:net_path path;
      let reloaded = Problem_file.load path in
      (* same region *)
      Alcotest.(check bool) "region lower" true
        (reloaded.Problem.region.Region.lower = problem.Problem.region.Region.lower);
      Alcotest.(check bool) "region upper" true
        (reloaded.Problem.region.Region.upper = problem.Problem.region.Region.upper);
      (* same semantics: concrete margins agree on samples *)
      let rng = Rng.create 5 in
      for _ = 1 to 50 do
        let x = Region.sample rng problem.Problem.region in
        Alcotest.(check (float 1e-9)) "same margin"
          (Problem.concrete_margin problem x)
          (Problem.concrete_margin reloaded x)
      done)

let test_problem_file_center_eps_form () =
  let dir = Filename.temp_file "abonn_pf2" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let net_path = Filename.concat dir "net.onnx" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove net_path;
      Sys.rmdir dir)
    (fun () ->
      let rng = Rng.create 78 in
      let net = Builder.mlp rng ~dims:[ 2; 4; 2 ] in
      Abonn_nn.Onnx.save net net_path;
      let text =
        "abonn-problem 1\n" ^ "network net.onnx\n" ^ "center 0.5 0.5\n" ^ "eps 0.1\n"
        ^ "clip 0 1\n" ^ "robustness 2 0\n"
      in
      let problem = Problem_file.of_string ~dir text in
      Alcotest.(check (float 1e-9)) "lower" 0.4 problem.Problem.region.Region.lower.(0);
      Alcotest.(check (float 1e-9)) "upper" 0.6 problem.Problem.region.Region.upper.(1))

let test_problem_file_constraints_form () =
  let dir = Filename.temp_file "abonn_pf3" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let net_path = Filename.concat dir "net.onnx" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove net_path;
      Sys.rmdir dir)
    (fun () ->
      let rng = Rng.create 79 in
      let net = Builder.mlp rng ~dims:[ 2; 4; 1 ] in
      Abonn_nn.Onnx.save net net_path;
      let text =
        "abonn-problem 1\nnetwork net.onnx\n# the Fig. 1 property\n"
        ^ "box-lower 0 0\nbox-upper 1 1\nconstraint 2.5 1\n"
      in
      let problem = Problem_file.of_string ~dir text in
      Alcotest.(check int) "one row" 1 (Property.num_constraints problem.Problem.property);
      Alcotest.(check (float 1e-9)) "margin uses offset" 2.5
        (Property.margin problem.Problem.property [| 0.0 |]))

let test_problem_file_rejects_garbage () =
  (* malformed input raises the shared positioned error with the
     offending token and a 1-based line/column (satellite of PR 9) *)
  (match Problem_file.of_string "network foo\n" with
   | _ -> Alcotest.fail "no header accepted"
   | exception Abonn_util.Parse_error.Error e ->
     Alcotest.(check string) "token" "network" e.Abonn_util.Parse_error.token;
     (match e.Abonn_util.Parse_error.pos with
      | Abonn_util.Parse_error.Line { line; col } ->
        Alcotest.(check int) "line" 1 line;
        Alcotest.(check int) "col" 1 col
      | Abonn_util.Parse_error.Byte _ -> Alcotest.fail "expected a line position"));
  Alcotest.(check bool) "mixture" true
    (try
       ignore
         (Problem_file.of_string
            "abonn-problem 1\nnetwork x\nbox-lower 0\ncenter 0\neps 1\nrobustness 2 0\n");
       false
     with Abonn_util.Parse_error.Error _ -> true);
  (match
     Problem_file.of_string "abonn-problem 1\nnetwork x\nbox-lower 0 oops 1\n"
   with
   | _ -> Alcotest.fail "bad float accepted"
   | exception Abonn_util.Parse_error.Error e ->
     Alcotest.(check string) "bad token" "oops" e.Abonn_util.Parse_error.token;
     (match e.Abonn_util.Parse_error.pos with
      | Abonn_util.Parse_error.Line { line; col } ->
        Alcotest.(check int) "bad float line" 3 line;
        Alcotest.(check int) "bad float col" 13 col
      | Abonn_util.Parse_error.Byte _ -> Alcotest.fail "expected a line position"))

(* Defects injected into the committed LP fuzz-corpus problem (a
   3-input network): each must be rejected with a positioned error at
   the offending token, never reach the verifier. *)
let corpus_lp_with edits =
  let text =
    In_channel.with_open_bin "fixtures/fuzz/corpus_lp.problem" In_channel.input_all
  in
  String.split_on_char '\n' text
  |> List.map (fun l ->
         match List.assoc_opt (List.hd (String.split_on_char ' ' l)) edits with
         | Some replacement -> replacement
         | None -> l)
  |> String.concat "\n"

let check_rejected edits ~line ~col ~token () =
  match Problem_file.of_string ~dir:"fixtures/fuzz" (corpus_lp_with edits) with
  | _ -> Alcotest.fail "defective problem accepted"
  | exception Abonn_util.Parse_error.Error e -> (
    Alcotest.(check string) "token" token e.Abonn_util.Parse_error.token;
    match e.Abonn_util.Parse_error.pos with
    | Abonn_util.Parse_error.Line l ->
      Alcotest.(check (pair int int)) "line:col" (line, col) (l.line, l.col)
    | Abonn_util.Parse_error.Byte _ -> Alcotest.fail "expected a line position")

let defect name edits ~line ~col ~token =
  Alcotest.test_case name `Quick (check_rejected edits ~line ~col ~token)

(* A malformed network file surfaces the ONNX reader's own error,
   positioned by byte offset in that file: never a bare [Failure] or
   [Network.create]'s [Invalid_argument]. *)
let test_problem_file_malformed_network () =
  match
    Problem_file.of_string ~dir:"fixtures/fuzz"
      (corpus_lp_with [ ("network", "network ../formats/malformed/truncated.onnx") ])
  with
  | _ -> Alcotest.fail "truncated network accepted"
  | exception Abonn_util.Parse_error.Error e -> (
    Alcotest.(check string) "error names the network file"
      "fixtures/fuzz/../formats/malformed/truncated.onnx" e.Abonn_util.Parse_error.source;
    match e.Abonn_util.Parse_error.pos with
    | Abonn_util.Parse_error.Byte _ -> ()
    | Abonn_util.Parse_error.Line _ -> Alcotest.fail "expected a byte offset")

let problem_file_tests =
  ( "spec.problem_file",
    [ Alcotest.test_case "roundtrip" `Quick test_problem_file_roundtrip;
      Alcotest.test_case "center/eps form" `Quick test_problem_file_center_eps_form;
      Alcotest.test_case "constraints form" `Quick test_problem_file_constraints_form;
      Alcotest.test_case "rejects garbage" `Quick test_problem_file_rejects_garbage;
      defect "rejects missing network" [ ("network", "network missing.onnx") ]
        ~line:2 ~col:1 ~token:"missing.onnx";
      Alcotest.test_case "malformed network positioned" `Quick
        test_problem_file_malformed_network;
      defect "rejects nan constraint offset"
        [ ("constraint", "constraint nan -0x1p+0 0x1p+0") ]
        ~line:5 ~col:12 ~token:"nan";
      defect "rejects nan box-lower"
        [ ("box-lower", "box-lower nan 0x1.4a097976f00e2p-1 0x1.34b6b9bef3deap-1") ]
        ~line:3 ~col:11 ~token:"nan";
      defect "rejects inf box-upper"
        [ ("box-upper", "box-upper inf 0x1.67deaae4d2732p-1 0x1.528beb2cd643ap-1") ]
        ~line:4 ~col:11 ~token:"inf";
      defect "rejects empty box" [ ("box-lower", "box-lower 1 1 1") ]
        ~line:3 ~col:11 ~token:"1";
      defect "rejects short box" [ ("box-lower", "box-lower 0.3 0.6") ]
        ~line:3 ~col:1 ~token:"box-lower";
      defect "rejects negative eps"
        [ ("box-lower", "center 0.3 0.6 0.6"); ("box-upper", "eps -1") ]
        ~line:4 ~col:5 ~token:"-1";
      defect "rejects empty clipped ball"
        [ ("box-lower", "center 0.3 5 0.6"); ("box-upper", "eps 0.1\nclip 0 1") ]
        ~line:3 ~col:12 ~token:"5";
      defect "rejects wide constraint" [ ("constraint", "constraint 0 -1 1 1") ]
        ~line:5 ~col:1 ~token:"constraint";
      defect "rejects robustness arity" [ ("constraint", "robustness 3 0") ]
        ~line:5 ~col:1 ~token:"robustness"
    ] )

let suite = suite @ [ problem_file_tests ]

(* --- Targeted / output-range properties --- *)

let test_property_targeted () =
  let p = Property.targeted ~num_classes:3 ~label:0 ~target:2 in
  Alcotest.(check int) "one row" 1 (Property.num_constraints p);
  check_float "margin" 1.5 (Property.margin p [| 2.0; 9.0; 0.5 |]);
  Alcotest.(check bool) "violated when target preferred" true
    (Property.violated p [| 0.5; 9.0; 2.0 |]);
  Alcotest.(check bool) "rejects equal classes" true
    (try ignore (Property.targeted ~num_classes:3 ~label:1 ~target:1); false
     with Invalid_argument _ -> true)

let test_property_output_range () =
  let p = Property.output_range ~num_classes:2 ~output:0 ~lo:(-1.0) ~hi:1.0 in
  Alcotest.(check int) "two rows" 2 (Property.num_constraints p);
  Alcotest.(check bool) "inside" true (Property.satisfied p [| 0.0; 99.0 |]);
  Alcotest.(check bool) "below" true (Property.violated p [| -2.0; 0.0 |]);
  Alcotest.(check bool) "above" true (Property.violated p [| 2.0; 0.0 |]);
  Alcotest.(check bool) "rejects empty range" true
    (try ignore (Property.output_range ~num_classes:2 ~output:0 ~lo:1.0 ~hi:1.0); false
     with Invalid_argument _ -> true)

let test_targeted_verification_end_to_end () =
  (* Verify a targeted property with ABONN-adjacent machinery: a tiny
     epsilon ball must certify; a huge one must produce a targeted flip
     or verify, and any counterexample must indeed prefer the target. *)
  let rng = Rng.create 123 in
  let net = Builder.mlp rng ~dims:[ 2; 6; 3 ] in
  let center = [| 0.2; -0.1 |] in
  let label = Network.predict net center in
  let target = (label + 1) mod 3 in
  let property = Property.targeted ~num_classes:3 ~label ~target in
  let region = Region.linf_ball ~center ~eps:1e-6 () in
  let problem = Problem.create ~network:net ~region ~property () in
  let outcome = Abonn_prop.Deeppoly.run problem [] in
  Alcotest.(check bool) "tiny ball certifies" true (Abonn_prop.Outcome.proved outcome)

let more_property_tests =
  ( "spec.property_extra",
    [ Alcotest.test_case "targeted" `Quick test_property_targeted;
      Alcotest.test_case "output range" `Quick test_property_output_range;
      Alcotest.test_case "targeted end-to-end" `Quick test_targeted_verification_end_to_end
    ] )

let suite = suite @ [ more_property_tests ]
