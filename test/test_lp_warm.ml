(* Differential battery for the warm-started LP verifier (DESIGN.md §13):
   agreement with an independent per-state encoding and warm vs cold
   agreement along split paths, basis round-trips through
   [Boxlp.solve_warm], fallback-path correctness, the bounded-pivot
   [Pivot_limit] result, [lp.warm.*] counters and [lp_warm] trace events,
   and multi-domain verdict agreement. *)

module Rng = Abonn_util.Rng
module Budget = Abonn_util.Budget
module Region = Abonn_spec.Region
module Property = Abonn_spec.Property
module Split = Abonn_spec.Split
module Problem = Abonn_spec.Problem
module Verdict = Abonn_spec.Verdict
module Network = Abonn_nn.Network
module Affine = Abonn_nn.Affine
module Builder = Abonn_nn.Builder
module Outcome = Abonn_prop.Outcome
module Bounds = Abonn_prop.Bounds
module Deeppoly = Abonn_prop.Deeppoly
module Boxlp = Abonn_lp.Boxlp
module Lp = Abonn_lp.Lp_problem
module Lp_verifier = Abonn_lp.Lp_verifier
module Obs = Abonn_obs.Obs
module Metrics = Abonn_obs.Metrics
module Sink = Abonn_obs.Sink
module Event = Abonn_obs.Event
module Matrix = Abonn_tensor.Matrix
module Bfs = Abonn_bab.Bfs
module Result = Abonn_bab.Result
module Summary = Abonn_trace.Summary
module Phases = Abonn_trace.Phases

let check_float tol = Alcotest.(check (float tol))

let random_problem ?(seed = 0) ?(dims = [ 2; 5; 2 ]) ?(eps = 0.3) () =
  let rng = Rng.create seed in
  let net = Builder.mlp rng ~dims in
  let in_dim = List.hd dims in
  let center = Array.init in_dim (fun _ -> Rng.range rng (-0.5) 0.5) in
  let region = Region.linf_ball ~center ~eps () in
  let out_dim = List.nth dims (List.length dims - 1) in
  let label = Network.predict net center in
  let property = Property.robustness ~num_classes:out_dim ~label in
  Problem.create ~network:net ~region ~property ()

(* equal up to [tol], with equal infinities counting as equal *)
let close ?(tol = 1e-9) a b = a = b || Float.abs (a -. b) <= tol

let check_rows name a b =
  Alcotest.(check int) (name ^ " arity") (Array.length a) (Array.length b);
  Array.iteri
    (fun r va ->
      if not (close va b.(r)) then
        Alcotest.failf "%s: row %d differs (%.17g vs %.17g)" name r va b.(r))
    a

(* Phase-matched split path from a concrete probe point: every prefix of
   the path keeps [x] feasible, so [concrete_margin problem x] upper-bounds
   the true minimum of every node along it. *)
let phase_path problem x depth =
  let affine = problem.Problem.affine in
  let pre = Affine.pre_activations affine x in
  let k = Problem.num_relus problem in
  List.init depth (fun i ->
      let relu = i * k / depth in
      let layer, idx = Affine.relu_position affine relu in
      let phase = if pre.(layer).(idx) >= 0.0 then Split.Active else Split.Inactive in
      (relu, phase))

(* root plus every prefix of the path, shallowest first *)
let gammas_of_path path =
  List.rev
    (List.fold_left
       (fun acc (relu, phase) -> Split.extend (List.hd acc) ~relu ~phase :: acc)
       [ [] ] path)

let counter name =
  match List.assoc_opt name (Metrics.snapshot ()).Metrics.counters with
  | Some n -> n
  | None -> 0

let with_metrics f =
  Metrics.reset ();
  Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Metrics.reset ();
      Metrics.set_enabled false)
    f

(* --- warm vs cold differential --- *)

(* Reference LP: the triangle relaxation encoded per neuron state (a
   stable neuron gets no relaxation rows), built with [Lp_problem] and
   solved row by row from scratch.  Its polytope is the one
   [Lp_verifier]'s fixed-shape encoding describes.  [None] when the
   splits are infeasible. *)
let reference_rows (problem : Problem.t) gamma =
  match Deeppoly.hidden_bounds problem gamma with
  | None -> None
  | Some pre_bounds ->
    let affine = problem.Problem.affine and region = problem.Problem.region in
    let lp = Lp.create () in
    let neuron prev (w : Matrix.t) bias (b : Bounds.t) i =
      let lo = b.Bounds.lower.(i) and hi = b.Bounds.upper.(i) in
      let z = Lp.add_var ~lo ~hi lp in
      Lp.add_constraint lp
        ((1.0, z) :: List.init w.Matrix.cols (fun j -> (-.Matrix.get w i j, prev.(j))))
        Lp.Eq bias.(i);
      match Bounds.relu_state_of b i with
      | Bounds.Stable_inactive -> Lp.add_var ~lo:0.0 ~hi:0.0 lp
      | Bounds.Stable_active ->
        let p = Lp.add_var ~lo:(Float.max 0.0 lo) ~hi:(Float.max 0.0 hi) lp in
        Lp.add_constraint lp [ (1.0, p); (-1.0, z) ] Lp.Eq 0.0;
        p
      | Bounds.Unstable ->
        (* p ≥ z, and the triangle's chord p ≤ s·(z − lo), s = hi/(hi−lo) *)
        let p = Lp.add_var ~lo:0.0 ~hi:(Float.max 0.0 hi) lp in
        Lp.add_constraint lp [ (1.0, p); (-1.0, z) ] Lp.Ge 0.0;
        let s = hi /. (hi -. lo) in
        Lp.add_constraint lp [ (1.0, p); (-.s, z) ] Lp.Le (-.s *. lo);
        p
    in
    let inputs =
      Array.mapi
        (fun j lo -> Lp.add_var ~lo ~hi:region.Region.upper.(j) lp)
        region.Region.lower
    in
    let last_post = ref inputs in
    Array.iteri
      (fun l b ->
        let w = Affine.(affine.weights.(l)) and bias = Affine.(affine.biases.(l)) in
        let prev = !last_post in
        last_post := Array.init w.Matrix.rows (neuron prev w bias b))
      pre_bounds;
    let last = Affine.num_layers affine - 1 in
    let w = Affine.(affine.weights.(last)) and bias = Affine.(affine.biases.(last)) in
    let prop = problem.Problem.property in
    Some
      (Array.init prop.Property.c.Matrix.rows (fun r ->
           (* minimise (cᵀW)·x_last + cᵀb + d *)
           let crow = Matrix.row prop.Property.c r in
           let coefs = Matrix.tmv w crow in
           let constant = Abonn_tensor.Vector.dot crow bias +. prop.Property.d.(r) in
           Lp.set_objective ~constant lp
             (Array.to_list (Array.mapi (fun j v -> (v, !last_post.(j))) coefs));
           match Lp.solve lp with
           | Lp.Optimal { objective; _ } -> objective
           | Lp.Infeasible -> infinity
           | Lp.Unbounded | Lp.Pivot_limit -> neg_infinity))

(* Stateless calls agree with the reference encoding to solver noise on
   every node of a split path. *)
let test_warm_stateless_matches_cold () =
  Lp_verifier.clear_warm_cache ();
  for seed = 0 to 5 do
    let problem = random_problem ~seed ~eps:0.4 () in
    let rng = Rng.create (1000 + seed) in
    let x = Region.sample rng problem.Problem.region in
    let depth = Stdlib.min 4 (Problem.num_relus problem) in
    List.iter
      (fun gamma ->
        let cold = reference_rows problem gamma in
        let warm, state' = Lp_verifier.run_warm problem gamma in
        Alcotest.(check bool)
          (Printf.sprintf "infeasible agrees (seed %d)" seed)
          (cold = None) warm.Outcome.infeasible;
        Option.iter
          (fun rows ->
            let phat = Array.fold_left Float.min infinity rows in
            if not (close phat warm.Outcome.phat) then
              Alcotest.failf "phat differs (seed %d): %.17g vs %.17g" seed phat
                warm.Outcome.phat;
            check_rows (Printf.sprintf "row_lower (seed %d)" seed) rows
              warm.Outcome.row_lower)
          cold;
        Alcotest.(check bool) "state iff feasible"
          (not warm.Outcome.infeasible)
          (state' <> None))
      (gammas_of_path (phase_path problem x depth))
  done

(* Contradictory splits must stay vacuous through the warm path. *)
let test_warm_infeasible_split_vacuous () =
  let problem = random_problem ~seed:50 ~dims:[ 3; 6; 6; 2 ] ~eps:0.01 () in
  let outcome = Lp_verifier.run problem [] in
  let affine = problem.Problem.affine in
  let found = ref None in
  Array.iteri
    (fun l (b : Abonn_prop.Bounds.t) ->
      Array.iteri
        (fun i _ ->
          if !found = None && b.Abonn_prop.Bounds.lower.(i) > 0.01 then
            found := Some (Affine.relu_index affine ~layer:l ~idx:i))
        b.Abonn_prop.Bounds.lower)
    outcome.Outcome.pre_bounds;
  match !found with
  | None -> Alcotest.fail "no stable-active neuron"
  | Some relu ->
    let gamma = Split.extend [] ~relu ~phase:Split.Inactive in
    let warm, state' = Lp_verifier.run_warm problem gamma in
    Alcotest.(check bool) "vacuous" true warm.Outcome.infeasible;
    Alcotest.(check bool) "no state" true (state' = None)

(* Threading parent state down a phase-matched path: warm bounds may
   tighten (parent LP rows clamp the child's DeepPoly pre-bounds) but can
   never be looser than cold, and stay sound against the in-region probe. *)
let test_warm_stateful_sound_and_no_looser () =
  Lp_verifier.clear_warm_cache ();
  for seed = 10 to 14 do
    let problem = random_problem ~seed ~dims:[ 2; 6; 2 ] ~eps:0.4 () in
    let rng = Rng.create (2000 + seed) in
    let x = Region.sample rng problem.Problem.region in
    let depth = Stdlib.min 4 (Problem.num_relus problem) in
    let margin = Problem.concrete_margin problem x in
    let state = ref None in
    List.iter
      (fun gamma ->
        let cold = Lp_verifier.run problem gamma in
        let warm, state' = Lp_verifier.run_warm ?state:!state problem gamma in
        state := state';
        Alcotest.(check bool)
          (Printf.sprintf "phat no looser (seed %d)" seed)
          true
          (warm.Outcome.phat >= cold.Outcome.phat -. 1e-9);
        if
          Array.length warm.Outcome.row_lower
          = Array.length cold.Outcome.row_lower
        then
          Array.iteri
            (fun r v ->
              Alcotest.(check bool) "row no looser" true
                (v >= cold.Outcome.row_lower.(r) -. 1e-9))
            warm.Outcome.row_lower;
        Alcotest.(check bool)
          (Printf.sprintf "sound at probe (seed %d)" seed)
          true
          (warm.Outcome.infeasible || warm.Outcome.phat <= margin +. 1e-7))
      (gammas_of_path (phase_path problem x depth))
  done

(* Stateful warm calls along a path must actually replay cached bases:
   every non-root node is a cache hit, with matching counters and one
   [lp_warm] event per call whose payload obeys the fallback contract
   ([""] iff hit, ["no-parent"] at the root). *)
let test_warm_cache_hits_and_events () =
  Lp_verifier.clear_warm_cache ();
  let problem = random_problem ~seed:3 ~dims:[ 2; 6; 2 ] ~eps:0.4 () in
  let rng = Rng.create 77 in
  let x = Region.sample rng problem.Problem.region in
  let depth = Stdlib.min 4 (Problem.num_relus problem) in
  let gammas = gammas_of_path (phase_path problem x depth) in
  with_metrics (fun () ->
      let sink, events = Sink.memory () in
      Obs.with_sink sink (fun () ->
          let state = ref None in
          List.iter
            (fun gamma ->
              let _, state' = Lp_verifier.run_warm ?state:!state problem gamma in
              state := state')
            gammas);
      let non_root = List.length gammas - 1 in
      Alcotest.(check int) "every non-root call hits" non_root
        (counter "lp.warm.hits");
      Alcotest.(check int) "no degraded fallbacks" 0 (counter "lp.warm.fallbacks");
      Alcotest.(check bool) "cache populated" true
        (Lp_verifier.warm_cache_size () > 0);
      let warm_events =
        List.filter_map
          (fun e ->
            match e.Event.event with
            | Event.Lp_warm { hit; fallback; pivots; _ } ->
              Some (hit, fallback, pivots)
            | _ -> None)
          (events ())
      in
      Alcotest.(check int) "one lp_warm event per call" (List.length gammas)
        (List.length warm_events);
      (match warm_events with
       | (hit0, fb0, _) :: rest ->
         Alcotest.(check bool) "root is not a hit" false hit0;
         Alcotest.(check string) "root has no parent" "no-parent" fb0;
         List.iter
           (fun (hit, fb, pivots) ->
             Alcotest.(check bool) "non-root hits" true hit;
             Alcotest.(check string) "hit payload is empty" "" fb;
             Alcotest.(check bool) "pivot count sane" true (pivots >= 0))
           rest
       | [] -> Alcotest.fail "no lp_warm events");
      (* every lp_warm annotates the lp bound_computed just before it *)
      let rec pairs = function
        | prev :: ({ Event.event = Event.Lp_warm _; _ } as cur) :: rest ->
          (match prev.Event.event with
           | Event.Bound_computed b ->
             Alcotest.(check string) "annotates the lp appver" "lp" b.appver
           | _ -> Alcotest.fail "lp_warm not preceded by bound_computed");
          pairs (cur :: rest)
        | _ :: rest -> pairs rest
        | [] -> ()
      in
      pairs (events ()))

(* --- Boxlp basis round-trips and fallbacks --- *)

(* min -x0-x1 over [0,2]^2 with x0+x1 <= 3: optimum -3, one basic var. *)
let base_c = [| -1.0; -1.0 |]
let base_lo = [| 0.0; 0.0 |]
let base_hi = [| 2.0; 2.0 |]
let base_rows = [ { Boxlp.coefs = [ (0, 1.0); (1, 1.0) ]; sense = Boxlp.Le; rhs = 3.0 } ]

let solved_base () =
  let sol, ses =
    Boxlp.solve_session ~c:base_c ~lo:base_lo ~hi:base_hi ~rows:base_rows ()
  in
  Alcotest.(check bool) "base optimal" true (sol.Boxlp.status = Boxlp.Optimal);
  let ses = Option.get ses in
  match Boxlp.basis_of_session ses with
  | None -> Alcotest.fail "expected exportable basis"
  | Some from -> (sol, from)

let test_basis_roundtrip_zero_pivots () =
  let sol, from = solved_base () in
  match
    Boxlp.solve_warm ~from ~c:base_c ~lo:base_lo ~hi:base_hi ~rows:base_rows ()
  with
  | Boxlp.Warm_ok { sol = wsol; pivots; session } ->
    Alcotest.(check bool) "optimal" true (wsol.Boxlp.status = Boxlp.Optimal);
    Alcotest.(check int) "zero pivots" 0 pivots;
    check_float 1e-9 "same objective" sol.Boxlp.objective wsol.Boxlp.objective;
    Alcotest.(check bool) "live session" true (session <> None)
  | Boxlp.Warm_fallback r -> Alcotest.failf "unexpected fallback: %s" r

(* Raising the lower bounds leaves the stored basis primal-infeasible
   (the basic variable replays below its new floor, and the slack's
   implied bounds pin it so no bound flip can compensate): the dual
   simplex must repair it (>= 1 pivot) and land on the new optimum. *)
let test_warm_repairs_bound_shift () =
  let _, from = solved_base () in
  let lo' = [| 1.5; 1.5 |] in
  match Boxlp.solve_warm ~from ~c:base_c ~lo:lo' ~hi:base_hi ~rows:base_rows () with
  | Boxlp.Warm_ok { sol; pivots; _ } ->
    Alcotest.(check bool) "optimal" true (sol.Boxlp.status = Boxlp.Optimal);
    check_float 1e-9 "repaired optimum" (-3.0) sol.Boxlp.objective;
    Alcotest.(check bool) "dual pivots spent" true (pivots >= 1)
  | Boxlp.Warm_fallback r -> Alcotest.failf "unexpected fallback: %s" r

let test_warm_pivot_cap_falls_back () =
  let _, from = solved_base () in
  let lo' = [| 1.5; 1.5 |] in
  match
    Boxlp.solve_warm ~pivot_cap:0 ~from ~c:base_c ~lo:lo' ~hi:base_hi
      ~rows:base_rows ()
  with
  | Boxlp.Warm_fallback "pivot-cap" -> ()
  | Boxlp.Warm_fallback r -> Alcotest.failf "wrong fallback reason: %s" r
  | Boxlp.Warm_ok _ -> Alcotest.fail "expected pivot-cap fallback"

let test_warm_shape_mismatch_falls_back () =
  let _, from = solved_base () in
  (* one variable too many: same rows, different n *)
  match
    Boxlp.solve_warm ~from ~c:[| -1.0; -1.0; 0.0 |] ~lo:[| 0.0; 0.0; 0.0 |]
      ~hi:[| 2.0; 2.0; 1.0 |] ~rows:base_rows ()
  with
  | Boxlp.Warm_fallback "shape-mismatch" -> ()
  | Boxlp.Warm_fallback r -> Alcotest.failf "wrong fallback reason: %s" r
  | Boxlp.Warm_ok _ -> Alcotest.fail "expected shape-mismatch fallback"

let test_warm_corrupt_basis_falls_back () =
  let _, from = solved_base () in
  (* out-of-range basis entry must degrade, never raise *)
  let corrupt = { from with Boxlp.w_basis = [| 99 |] } in
  (match
     Boxlp.solve_warm ~from:corrupt ~c:base_c ~lo:base_lo ~hi:base_hi
       ~rows:base_rows ()
   with
   | Boxlp.Warm_fallback r ->
     Alcotest.(check bool) "reason named" true (String.length r > 0)
   | Boxlp.Warm_ok _ -> Alcotest.fail "expected fallback on corrupt basis");
  (* an all-Basic status vector is structurally inconsistent too *)
  let inconsistent =
    { from with Boxlp.w_status = Array.map (fun _ -> Boxlp.Basic) from.Boxlp.w_status }
  in
  match
    Boxlp.solve_warm ~from:inconsistent ~c:base_c ~lo:base_lo ~hi:base_hi
      ~rows:base_rows ()
  with
  | Boxlp.Warm_fallback _ -> ()
  | Boxlp.Warm_ok { sol; _ } ->
    (* tolerated only if the repair still found the true optimum *)
    Alcotest.(check bool) "optimal" true (sol.Boxlp.status = Boxlp.Optimal);
    check_float 1e-9 "objective" (-3.0) sol.Boxlp.objective

(* Round-trip property on random boxed LPs: an exported basis replayed
   against its own problem must reproduce the optimum (never fall back,
   never drift). *)
let prop_roundtrip_random =
  QCheck.Test.make ~name:"warm round-trip reproduces the optimum" ~count:100
    (QCheck.int_range 0 100_000) (fun seed ->
      let rng = Rng.create seed in
      let n = 2 + Rng.int rng 4 in
      let m = 1 + Rng.int rng 3 in
      let lo = Array.init n (fun _ -> Rng.range rng (-2.0) 0.0) in
      let hi = Array.init n (fun i -> lo.(i) +. Rng.range rng 0.0 3.0) in
      let c = Array.init n (fun _ -> Rng.range rng (-1.0) 1.0) in
      let rows =
        List.init m (fun _ ->
            let coefs = List.init n (fun j -> (j, Rng.range rng (-1.0) 1.0)) in
            let sense =
              match Rng.int rng 3 with 0 -> Boxlp.Le | 1 -> Boxlp.Ge | _ -> Boxlp.Eq
            in
            { Boxlp.coefs; sense; rhs = Rng.range rng (-1.0) 1.0 })
      in
      let sol, ses = Boxlp.solve_session ~c ~lo ~hi ~rows () in
      match ses with
      | None -> true (* infeasible / unbounded: nothing to round-trip *)
      | Some ses ->
        (match Boxlp.basis_of_session ses with
         | None -> true (* artificial still basic: not exportable *)
         | Some from ->
           (match Boxlp.solve_warm ~from ~c ~lo ~hi ~rows () with
            | Boxlp.Warm_ok { sol = wsol; _ } ->
              wsol.Boxlp.status = Boxlp.Optimal
              && Float.abs (wsol.Boxlp.objective -. sol.Boxlp.objective) < 1e-6
            | Boxlp.Warm_fallback _ -> false)))

(* --- bounded-pivot termination (Pivot_limit) --- *)

(* Starving the solvers of pivots must surface as a [Pivot_limit] result,
   never an exception (regression: this used to [failwith]). *)
let test_boxlp_pivot_limit () =
  let sol =
    Boxlp.solve ~max_iters:0 ~c:base_c ~lo:base_lo ~hi:base_hi ~rows:base_rows ()
  in
  Alcotest.(check bool) "pivot limit" true (sol.Boxlp.status = Boxlp.Pivot_limit)

let test_simplex_pivot_limit () =
  (* the classic degenerate instance from test_lp.ml, starved of pivots *)
  let c = [| -10.0; 57.0; 9.0; 24.0; 0.0; 0.0; 0.0 |] in
  let row coefs rhs =
    { Boxlp.coefs = List.mapi (fun j v -> (j, v)) coefs; sense = Boxlp.Eq; rhs }
  in
  let rows =
    [ row [ 0.5; -5.5; -2.5; 9.0; 1.0; 0.0; 0.0 ] 0.0;
      row [ 0.5; -1.5; -0.5; 1.0; 0.0; 1.0; 0.0 ] 0.0;
      row [ 1.0; 0.0; 0.0; 0.0; 0.0; 0.0; 1.0 ] 1.0
    ]
  in
  let lo = Array.make 7 0.0 and hi = Array.make 7 Float.infinity in
  let sol = Boxlp.solve ~max_iters:1 ~c ~lo ~hi ~rows () in
  Alcotest.(check bool) "pivot limit" true (sol.Boxlp.status = Boxlp.Pivot_limit);
  (* with the default budget the same instance still solves *)
  let sol = Boxlp.solve ~c ~lo ~hi ~rows () in
  Alcotest.(check bool) "solves with budget" true (sol.Boxlp.status = Boxlp.Optimal);
  check_float 1e-6 "objective" (-1.0) sol.Boxlp.objective

let test_lp_problem_pivot_limit () =
  let lp = Lp.create () in
  let x = Lp.add_var ~lo:0.0 ~hi:2.0 lp in
  let y = Lp.add_var ~lo:0.0 ~hi:2.0 lp in
  Lp.add_constraint lp [ (1.0, x); (1.0, y) ] Lp.Le 3.0;
  Lp.set_objective lp [ (-1.0, x); (-1.0, y) ];
  Alcotest.(check bool) "pivot limit" true
    (Lp.solve ~max_iters:0 lp = Lp.Pivot_limit)

(* --- engine integration --- *)

let verdicts_agree name a b =
  match (a, b) with
  | Verdict.Verified, Verdict.Verified -> ()
  | Verdict.Falsified _, Verdict.Falsified _ -> ()
  | _ ->
    Alcotest.failf "%s: verdicts disagree (%s vs %s)" name (Verdict.to_string a)
      (Verdict.to_string b)

let check_witness problem = function
  | Verdict.Falsified x ->
    Alcotest.(check bool) "witness validates" true
      (Problem.is_counterexample problem x)
  | Verdict.Verified | Verdict.Timeout -> ()

(* Warm on, warm off (no parent states) and [--domains 4] must reach
   the same verdict when BaB runs on the LP AppVer. *)
let test_engine_warm_cold_domains_agree () =
  List.iter
    (fun seed ->
      let problem = random_problem ~seed ~dims:[ 2; 6; 2 ] ~eps:0.35 () in
      let budget () = Budget.of_calls 2_000 in
      Lp_verifier.clear_warm_cache ();
      let vwarm =
        (Bfs.verify ~appver:Lp_verifier.appver ~budget:(budget ()) ~domains:1
           problem)
          .Result.verdict
      in
      let vcold =
        (Bfs.verify ~appver:{ Lp_verifier.appver with warm = None }
           ~budget:(budget ()) ~domains:1 problem)
          .Result.verdict
      in
      Lp_verifier.clear_warm_cache ();
      let vpar =
        (Bfs.verify ~appver:Lp_verifier.appver ~budget:(budget ()) ~domains:4
           problem)
          .Result.verdict
      in
      verdicts_agree (Printf.sprintf "warm vs cold (seed %d)" seed) vwarm vcold;
      verdicts_agree (Printf.sprintf "seq vs domains:4 (seed %d)" seed) vwarm vpar;
      List.iter (check_witness problem) [ vwarm; vcold; vpar ])
    [ 0; 3; 7 ]

(* --- trace accounting --- *)

(* One LP call is one AppVer call in the trace: the DeepPoly bounds it
   builds on emit no event of their own, so [abonn_trace summary] and
   [phases] count exactly the calls the engine reports. *)
let test_one_event_per_call () =
  (* both engines exhaust the 30-call budget on this instance *)
  let problem = random_problem ~seed:3 ~dims:[ 3; 8; 8; 3 ] ~eps:0.4 () in
  let appver = Lp_verifier.appver and budget () = Budget.of_calls 30 in
  List.iter
    (fun (name, verify) ->
      Lp_verifier.clear_warm_cache ();
      let sink, events = Sink.memory () in
      let result = Obs.with_sink sink (fun () -> verify problem) in
      let events = events () in
      let calls = result.Result.stats.Result.appver_calls in
      Alcotest.(check bool) (name ^ " splits") true (calls > 1);
      Alcotest.(check int) (name ^ " summary calls") calls
        (Summary.of_events events).Summary.calls;
      let phases = Phases.of_events events in
      Alcotest.(check (list string)) (name ^ " appver rows") [ "lp" ]
        (List.map fst phases.Phases.appver);
      Alcotest.(check int) (name ^ " phases calls") calls
        phases.Phases.appver_total.Phases.calls)
    [ ( "bestfirst",
        fun p -> Abonn_bab.Bestfirst.verify ~appver ~budget:(budget ()) ~domains:1 p );
      ( "inputsplit",
        fun p -> Abonn_bab.Inputsplit.verify ~appver ~budget:(budget ()) ~domains:1 p ) ]

let qtest = QCheck_alcotest.to_alcotest

let suite =
  [ ( "lp_warm.differential",
      [ Alcotest.test_case "stateless matches cold" `Quick
          test_warm_stateless_matches_cold;
        Alcotest.test_case "infeasible split vacuous" `Quick
          test_warm_infeasible_split_vacuous;
        Alcotest.test_case "stateful sound, no looser" `Quick
          test_warm_stateful_sound_and_no_looser;
        Alcotest.test_case "cache hits and events" `Quick
          test_warm_cache_hits_and_events
      ] );
    ( "lp_warm.boxlp",
      [ Alcotest.test_case "basis round-trip, zero pivots" `Quick
          test_basis_roundtrip_zero_pivots;
        Alcotest.test_case "repairs bound shift" `Quick
          test_warm_repairs_bound_shift;
        Alcotest.test_case "pivot cap falls back" `Quick
          test_warm_pivot_cap_falls_back;
        Alcotest.test_case "shape mismatch falls back" `Quick
          test_warm_shape_mismatch_falls_back;
        Alcotest.test_case "corrupt basis falls back" `Quick
          test_warm_corrupt_basis_falls_back;
        qtest prop_roundtrip_random
      ] );
    ( "lp_warm.pivot_limit",
      [ Alcotest.test_case "boxlp" `Quick test_boxlp_pivot_limit;
        Alcotest.test_case "simplex" `Quick test_simplex_pivot_limit;
        Alcotest.test_case "lp_problem" `Quick test_lp_problem_pivot_limit
      ] );
    ( "lp_warm.engine",
      [ Alcotest.test_case "warm/cold/domains verdicts agree" `Slow
          test_engine_warm_cold_domains_agree
      ] );
    ( "lp_warm.trace",
      [ Alcotest.test_case "one bound_computed per call" `Quick
          test_one_event_per_call
      ] )
  ]
