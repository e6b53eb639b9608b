module Budget = Abonn_util.Budget
module Obs = Abonn_obs.Obs
module Ev = Abonn_obs.Event
module Verdict = Abonn_spec.Verdict
module Problem = Abonn_spec.Problem
module Problem_file = Abonn_spec.Problem_file
module Deeppoly = Abonn_prop.Deeppoly
module Bounds = Abonn_prop.Bounds
module Bfs = Abonn_bab.Bfs
module Inputsplit = Abonn_bab.Inputsplit
module Result = Abonn_bab.Result
module Certificate = Abonn_bab.Certificate

type config = {
  seed : int;
  cases : int;
  families : Oracle.family list;
  minimize : bool;
  out_dir : string option;
  oracle : Oracle.config;
}

let default =
  { seed = 1; cases = 100; families = Oracle.all_families; minimize = true; out_dir = None;
    oracle = Oracle.default_config }

type outcome = {
  cases_run : int;
  checks_run : int;
  findings : Finding.t list;
}

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
  end

let fresh_temp_dir () =
  let base =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "abonn-fuzz-%d-%d" (Unix.getpid ()) (int_of_float (Unix.gettimeofday () *. 1000.) mod 100_000))
  in
  mkdir_p base;
  base

let save_repro ~dir ~base problem =
  mkdir_p dir;
  let problem_path = Filename.concat dir (base ^ ".problem") in
  let network_path = Filename.concat dir (base ^ ".onnx") in
  Problem_file.save problem ~network_path problem_path;
  problem_path

let replay_file ?config ~seed ~family path =
  let problem = Problem_file.load path in
  Oracle.run ?config ~seed family problem

(* Shrink, serialize, re-load, re-check: a finding leaves this function
   replayable from disk or it says so in [roundtrip_ok]. *)
let confirm_finding cfg ~dir (case : Gen.case) (f : Oracle.failure) =
  let same_failure p =
    match Oracle.run ~config:cfg.oracle ~seed:case.Gen.seed f.Oracle.family p with
    | Oracle.Fail f' -> f'.Oracle.check = f.Oracle.check
    | Oracle.Pass -> false
  in
  let minimized =
    if cfg.minimize then Shrink.minimize ~failing:same_failure case.Gen.problem
    else case.Gen.problem
  in
  let base = Printf.sprintf "finding_c%d_%s" case.Gen.index (Oracle.family_name f.Oracle.family) in
  let repro, roundtrip_ok =
    match save_repro ~dir ~base minimized with
    | path ->
      let ok =
        match replay_file ~config:cfg.oracle ~seed:case.Gen.seed ~family:f.Oracle.family path with
        | Oracle.Fail f' -> f'.Oracle.check = f.Oracle.check
        | Oracle.Pass -> false
        | exception _ -> false
      in
      (Some path, Some ok)
    | exception _ -> (None, None)
  in
  { Finding.case_index = case.Gen.index;
    case_seed = case.Gen.seed;
    family = f.Oracle.family;
    check = f.Oracle.check;
    detail = f.Oracle.detail;
    descr = case.Gen.descr;
    relus = Problem.num_relus case.Gen.problem;
    relus_minimized =
      (if cfg.minimize then Some (Problem.num_relus minimized) else None);
    repro;
    roundtrip_ok }

let run ?on_finding ?on_case cfg =
  let dir = match cfg.out_dir with Some d -> d | None -> fresh_temp_dir () in
  let findings = ref [] in
  let checks = ref 0 in
  for index = 0 to cfg.cases - 1 do
    let case = Gen.case ~seed:cfg.seed ~index in
    (match on_case with Some f -> f case | None -> ());
    let case_started = Unix.gettimeofday () in
    if Obs.tracing () then
      Obs.emit
        (Ev.Run_started
           { engine = "fuzz"; instance = Printf.sprintf "case-%d:%s" index case.Gen.descr });
    let case_findings = ref [] in
    List.iter
      (fun family ->
        incr checks;
        match Oracle.run ~config:cfg.oracle ~seed:case.Gen.seed family case.Gen.problem with
        | Oracle.Pass -> ()
        | Oracle.Fail f ->
          if Obs.active () then Obs.incr "fuzz.findings";
          let finding = confirm_finding cfg ~dir case f in
          case_findings := finding :: !case_findings;
          findings := finding :: !findings;
          (match on_finding with Some g -> g finding | None -> ()))
      cfg.families;
    if Obs.tracing () then begin
      let verdict =
        match !case_findings with
        | [] -> "pass"
        | f :: _ -> "finding:" ^ f.Finding.check
      in
      Obs.emit
        (Ev.Run_finished
           { engine = "fuzz";
             instance = Printf.sprintf "case-%d:%s" index case.Gen.descr;
             verdict;
             calls = List.length cfg.families;
             nodes = 0;
             max_depth = 0;
             wall = Unix.gettimeofday () -. case_started })
    end
  done;
  { cases_run = cfg.cases; checks_run = !checks; findings = List.rev !findings }

(* --- corpus export --- *)

(* A case is worth committing for a family only when it genuinely
   exercises that oracle's interesting paths. *)
let interesting oracle_cfg family (problem : Problem.t) =
  let budget () = Budget.of_calls oracle_cfg.Oracle.engine_budget in
  let bfs () = (Bfs.verify ~budget:(budget ()) problem).Result.verdict in
  match (family : Oracle.family) with
  | Oracle.Sampling -> Verdict.is_solved (bfs ())
  | Oracle.Bounds ->
    (match Deeppoly.hidden_bounds problem [] with
     | Some bs -> Array.exists (fun b -> Bounds.num_unstable b > 0) bs
     | None -> false)
  | Oracle.Exact ->
    Problem.num_relus problem <= oracle_cfg.Oracle.exact_max_relus
    && Problem.num_relus problem >= 1
    && Verdict.is_solved (bfs ())
  | Oracle.Engines ->
    Verdict.is_solved (bfs ())
    && Verdict.is_solved (Inputsplit.verify ~budget:(budget ()) problem).Result.verdict
  | Oracle.Cert ->
    (match Bfs.verify_with_certificate ~budget:(budget ()) problem with
     | { Result.verdict = Verdict.Verified; _ }, Some cert ->
       Certificate.num_leaves cert >= 2
     | _ -> false)
  | Oracle.Incremental ->
    (* warm-start reuse only does work when there is a split path to
       walk and unstable neurons for the intersection to tighten *)
    Problem.num_relus problem >= 2
    && (match Deeppoly.hidden_bounds problem [] with
        | Some bs -> Array.exists (fun b -> Bounds.num_unstable b > 0) bs
        | None -> false)
  | Oracle.Lp ->
    (* basis reuse only does work along a split path, and the triangle
       relaxation only differs from the box when neurons are unstable *)
    Problem.num_relus problem >= 2
    && (match Deeppoly.hidden_bounds problem [] with
        | Some bs -> Array.exists (fun b -> Bounds.num_unstable b > 0) bs
        | None -> false)
  | Oracle.Formats ->
    (* the lowering-agreement check only bites when BFS decides, and a
       ReLU keeps the ONNX round-trip from degenerating to one affine *)
    Problem.num_relus problem >= 1 && Verdict.is_solved (bfs ())

(* Corpus entries also target both verdict polarities for the sampling
   family, so the committed set covers proves and refutes. *)
let corpus_targets : (string * Oracle.family * (Oracle.config -> Problem.t -> bool)) list =
  let bfs_verdict cfg p =
    (Bfs.verify ~budget:(Budget.of_calls cfg.Oracle.engine_budget) p).Result.verdict
  in
  [ ("sampling_verified", Oracle.Sampling,
     fun cfg p ->
       interesting cfg Oracle.Sampling p && Verdict.is_verified (bfs_verdict cfg p));
    ("sampling_falsified", Oracle.Sampling,
     fun cfg p ->
       interesting cfg Oracle.Sampling p && Verdict.is_falsified (bfs_verdict cfg p));
    ("bounds", Oracle.Bounds, (fun cfg p -> interesting cfg Oracle.Bounds p));
    ("exact", Oracle.Exact, (fun cfg p -> interesting cfg Oracle.Exact p));
    ("engines", Oracle.Engines, (fun cfg p -> interesting cfg Oracle.Engines p));
    ("cert", Oracle.Cert, (fun cfg p -> interesting cfg Oracle.Cert p));
    ("incremental", Oracle.Incremental, (fun cfg p -> interesting cfg Oracle.Incremental p));
    ("incremental_deep", Oracle.Incremental,
     (* enough ReLUs for a full depth-3 warm-started walk plus a
        multi-layer prefix to skip *)
     fun cfg p ->
       interesting cfg Oracle.Incremental p
       && Problem.num_relus p >= 4
       && Array.length p.Problem.affine.Abonn_nn.Affine.weights >= 3);
    ("lp", Oracle.Lp, (fun cfg p -> interesting cfg Oracle.Lp p));
    ("lp_deep", Oracle.Lp,
     (* enough ReLUs for a full depth-3 warm-started basis walk over a
        multi-layer encoding *)
     fun cfg p ->
       interesting cfg Oracle.Lp p
       && Problem.num_relus p >= 4
       && Array.length p.Problem.affine.Abonn_nn.Affine.weights >= 3);
    ("formats", Oracle.Formats, (fun cfg p -> interesting cfg Oracle.Formats p));
    ("formats_multirow", Oracle.Formats,
     (* >= 2 property rows so the conjunctive max-gadget path runs *)
     fun cfg p ->
       interesting cfg Oracle.Formats p
       && Abonn_spec.Property.num_constraints p.Problem.property >= 2)
  ]

let export_corpus ?(seed = 2025) ~dir () =
  let oracle_cfg = Oracle.default_config in
  mkdir_p dir;
  let manifest = Buffer.create 256 in
  let entries =
    List.map
      (fun (name, family, pred) ->
        (* scan the campaign stream for the first interesting, passing case *)
        let rec find index =
          if index > 500 then
            failwith (Printf.sprintf "export_corpus: no interesting case for %s in 500 draws" name)
          else begin
            let case = Gen.case ~seed ~index in
            if pred oracle_cfg case.Gen.problem
               && Oracle.is_pass
                    (Oracle.run ~config:oracle_cfg ~seed:case.Gen.seed family case.Gen.problem)
            then case
            else find (index + 1)
          end
        in
        let case = find 0 in
        let keep p = try pred oracle_cfg p with _ -> false in
        let minimized = Shrink.minimize ~failing:keep case.Gen.problem in
        (* never commit a case the oracle does not currently pass *)
        let final =
          if Oracle.is_pass
               (Oracle.run ~config:oracle_cfg ~seed:case.Gen.seed family minimized)
          then minimized
          else case.Gen.problem
        in
        let base = "corpus_" ^ name in
        let path = save_repro ~dir ~base final in
        Buffer.add_string manifest
          (Printf.sprintf "%s %s %d\n" (Filename.basename path)
             (Oracle.family_name family) case.Gen.seed);
        (Filename.basename path, family, case.Gen.seed))
      corpus_targets
  in
  let oc = open_out (Filename.concat dir "corpus.txt") in
  output_string oc (Buffer.contents manifest);
  close_out oc;
  entries
