(* abonn_fuzz: deterministic differential fuzzing of the BaB stack.

   Examples:
     abonn_fuzz --seed 1 --cases 200 --oracle all
     abonn_fuzz --seed 7 --cases 50 --oracle bounds,engines --out repros/
     abonn_fuzz --replay repro.problem --family exact --seed 123
     abonn_fuzz --export-corpus test/fixtures/fuzz

   Oracles and shrinking: lib/check; findings log schema follows
   docs/TRACE_SCHEMA.md string conventions (ev = "fuzz_finding"). *)

open Cmdliner
module Obs = Abonn_obs.Obs
module Sink = Abonn_obs.Sink
module Check = Abonn_check
module Oracle = Abonn_check.Oracle
module Fuzz_campaign = Abonn_check.Fuzz_campaign
module Finding = Abonn_check.Finding
module Registry = Abonn_trace.Registry

let parse_families s =
  if String.trim s = "all" then Ok Oracle.all_families
  else
    let parts = String.split_on_char ',' s |> List.map String.trim in
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | p :: rest -> (
        match Oracle.family_of_string p with
        | Some f -> go (f :: acc) rest
        | None ->
          Error
            (Printf.sprintf
               "unknown oracle family %S (expected all, sampling, bounds, exact, \
                engines, cert, incremental, lp or formats)"
               p))
    in
    go [] parts

let with_sinks ~trace_file ~findings_file f =
  let trace_sink = Option.map Sink.jsonl_file trace_file in
  Option.iter Obs.install trace_sink;
  let findings_oc = Option.map open_out findings_file in
  let log_finding finding =
    match findings_oc with
    | Some oc ->
      output_string oc (Finding.to_json finding);
      output_char oc '\n';
      flush oc
    | None -> ()
  in
  let finally () =
    Option.iter
      (fun s ->
        Obs.remove s;
        s.Sink.close ())
      trace_sink;
    Option.iter close_out findings_oc
  in
  Fun.protect ~finally (fun () -> f log_finding)

let run_campaign seed cases families minimize out_dir trace_file findings_file
    samples engine_budget quiet registry =
  let oracle =
    { Oracle.default_config with Oracle.samples; engine_budget }
  in
  let cfg =
    { Fuzz_campaign.seed; cases; families; minimize; out_dir; oracle }
  in
  let started = Unix.gettimeofday () in
  let outcome =
    with_sinks ~trace_file ~findings_file (fun log_finding ->
        let on_case (case : Check.Gen.case) =
          if not quiet then begin
            Printf.printf "case %4d  seed %-20d %s\n" case.Check.Gen.index
              case.Check.Gen.seed case.Check.Gen.descr;
            flush stdout
          end
        in
        let on_finding finding =
          log_finding finding;
          Format.printf "%a@." Finding.pp finding
        in
        Fuzz_campaign.run ~on_finding ~on_case cfg)
  in
  let findings_n = List.length outcome.Fuzz_campaign.findings in
  Printf.printf "%d case(s), %d oracle check(s), %d finding(s)\n"
    outcome.Fuzz_campaign.cases_run outcome.Fuzz_campaign.checks_run findings_n;
  (* one campaign-summary line in the run registry, so nightly fuzz runs
     show up in cross-commit trend reports (abonn_trace report) *)
  Option.iter
    (fun path ->
      let record =
        Registry.make ~engine:"fuzz"
          ~model:(String.concat "," (List.map Oracle.family_name families))
          ~instance:(Printf.sprintf "campaign_seed%d" seed)
          ~seed ~domains:1 ~source_format:"synthetic"
          ~verdict:
            (if findings_n = 0 then "ok"
             else Printf.sprintf "findings:%d" findings_n)
          ~wall:(Unix.gettimeofday () -. started)
          ~calls:outcome.Fuzz_campaign.checks_run
          ~nodes:outcome.Fuzz_campaign.cases_run ~max_depth:0 ()
      in
      Registry.append ~path record;
      Printf.printf "registry record appended to: %s\n" path)
    registry;
  if outcome.Fuzz_campaign.findings = [] then `Ok () else exit 1

let run_replay path family_str seed samples engine_budget =
  match Oracle.family_of_string family_str with
  | None -> `Error (false, Printf.sprintf "unknown oracle family %S" family_str)
  | Some family -> (
    let config = { Oracle.default_config with Oracle.samples; engine_budget } in
    match Fuzz_campaign.replay_file ~config ~seed ~family path with
    | Oracle.Pass ->
      Printf.printf "PASS %s on %s\n" (Oracle.family_name family) path;
      `Ok ()
    | Oracle.Fail f ->
      Printf.printf "FAIL %s on %s\n  %s: %s\n" (Oracle.family_name family) path
        f.Oracle.check f.Oracle.detail;
      exit 1
    | exception Sys_error msg -> `Error (false, msg))

let run_export dir seed =
  match Fuzz_campaign.export_corpus ~seed ~dir () with
  | entries ->
    List.iter
      (fun (file, family, case_seed) ->
        Printf.printf "wrote %s (%s, seed %d)\n" file (Oracle.family_name family)
          case_seed)
      entries;
    Printf.printf "manifest: %s\n" (Filename.concat dir "corpus.txt");
    `Ok ()
  | exception Failure msg -> `Error (false, msg)

let main seed cases oracle_str minimize out_dir trace_file findings_file samples
    engine_budget quiet replay family export_corpus registry =
  match (replay, export_corpus) with
  | Some path, None -> run_replay path family seed samples engine_budget
  | None, Some dir -> run_export dir seed
  | Some _, Some _ -> `Error (true, "--replay and --export-corpus are exclusive")
  | None, None -> (
    match parse_families oracle_str with
    | Error msg -> `Error (true, msg)
    | Ok families ->
      run_campaign seed cases families minimize out_dir trace_file findings_file
        samples engine_budget quiet registry)

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Campaign seed.")

let cases_arg =
  Arg.(value & opt int 100 & info [ "cases" ] ~docv:"K" ~doc:"Number of generated cases.")

let oracle_arg =
  Arg.(
    value
    & opt string "all"
    & info [ "oracle" ] ~docv:"FAMILIES"
        ~doc:
          "Oracle families to run: $(b,all) or a comma-separated subset of \
           $(b,sampling), $(b,bounds), $(b,exact), $(b,engines), $(b,cert), \
           $(b,incremental), $(b,lp), $(b,formats).")

let minimize_arg =
  Arg.(
    value & opt bool true
    & info [ "minimize" ] ~docv:"BOOL"
        ~doc:"Shrink failing cases to a minimal reproducer before reporting.")

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"DIR"
        ~doc:"Directory for minimal repro files (default: a fresh temp dir).")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Write a JSONL trace of the campaign (schema: docs/TRACE_SCHEMA.md).")

let findings_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "findings" ] ~docv:"FILE"
        ~doc:"Append findings as JSONL (one fuzz_finding object per line).")

let samples_arg =
  Arg.(
    value & opt int Oracle.default_config.Oracle.samples
    & info [ "samples" ] ~docv:"N" ~doc:"Sampled points per case for the oracles.")

let budget_arg =
  Arg.(
    value & opt int Oracle.default_config.Oracle.engine_budget
    & info [ "engine-budget" ] ~docv:"CALLS"
        ~doc:"AppVer call budget for each engine run inside the oracles.")

let quiet_arg =
  Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"Do not print per-case progress lines.")

let replay_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "replay" ] ~docv:"FILE"
        ~doc:"Replay one problem file through a single oracle family and exit.")

let family_arg =
  Arg.(
    value & opt string "sampling"
    & info [ "family" ] ~docv:"FAMILY" ~doc:"Oracle family for $(b,--replay).")

let export_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "export-corpus" ] ~docv:"DIR"
        ~doc:
          "Regenerate the committed fuzz corpus: one minimized, oracle-passing \
           problem per family plus a corpus.txt manifest.")

let registry_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "registry" ] ~docv:"FILE"
        ~doc:
          "Append one campaign-summary record (engine $(b,fuzz), cases as nodes, \
           checks as calls, verdict $(b,ok) or $(b,findings:N)) to this run \
           registry, so fuzz campaigns appear in $(b,abonn_trace report) trends.")

let cmd =
  let doc = "deterministic differential fuzzing of the ABONN verification stack" in
  let man =
    [ `S Manpage.s_description;
      `P
        "Generates small verification problems from a campaign seed, checks them \
         against sampling, bound-lattice, exact-enumeration, cross-engine and \
         certificate oracles, and shrinks any failure to a minimal reproducer that \
         is serialized, re-loaded and re-checked before being reported.";
      `P "Exit status is non-zero when any finding is reported.";
      `S Manpage.s_see_also;
      `P "docs/TESTING.md for the test pyramid and fixture promotion workflow." ]
  in
  Cmd.v
    (Cmd.info "abonn_fuzz" ~doc ~man)
    Term.(
      ret
        (const main $ seed_arg $ cases_arg $ oracle_arg $ minimize_arg $ out_arg
       $ trace_arg $ findings_arg $ samples_arg $ budget_arg $ quiet_arg
       $ replay_arg $ family_arg $ export_arg $ registry_arg))

let () = exit (Cmd.eval cmd)
