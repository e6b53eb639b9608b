(* Campaign analytics (cactus/PAR-2/matrix/trends/attribution), the
   registry lint/gc pass, tail-mode registry reading, and the Perfetto
   exporter.  The report and exporter outputs are byte-compared against
   committed goldens: identical inputs must produce identical bytes. *)

module Registry = Abonn_trace.Registry
module Campaign = Abonn_trace.Campaign
module Reader = Abonn_trace.Reader
module Perfetto = Abonn_trace.Perfetto
module Event = Abonn_obs.Event
module Json = Abonn_util.Json
module Parse_error = Abonn_util.Parse_error

let fx name = Filename.concat (Filename.concat "fixtures" "campaign") name
let reg_a = fx "registry_a.jsonl"
let reg_b = fx "registry_b.jsonl"
let reg_bad = fx "registry_bad.jsonl"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  really_input_string ic (in_channel_length ic)

let load_pair () =
  match Campaign.load [ reg_a; reg_b ] with
  | Ok t -> t
  | Error msg -> Alcotest.failf "load: %s" msg

let mk ?(ts = "2026-08-01T00:00:00Z") ?(commit = "aaa1111") ?(domains = 1)
    ?(source_format = "native") ?(engine = "abonn") ?(model = "acas")
    ?(seed = 0) ~instance ~verdict ~wall () =
  Registry.make ~ts ~commit ~peak_rss_bytes:0 ~domains ~source_format ~engine
    ~model ~instance ~seed ~verdict ~wall ~calls:1 ~nodes:1 ~max_depth:1 ()

(* --- normalisation -------------------------------------------------- *)

let test_normalisation () =
  let r = mk ~instance:"mlp_d6_seed1@d4" ~verdict:"timeout" ~wall:1.0 () in
  Alcotest.(check string) "@dN stripped" "mlp_d6_seed1" (Campaign.instance_key r);
  Alcotest.(check int) "@dN wins over field" 4 (Campaign.effective_domains r);
  Alcotest.(check string) "family" "native/mlp/d4" (Campaign.family r);
  let r = mk ~instance:"mnist_l2@flight" ~verdict:"verified" ~wall:1.0 () in
  Alcotest.(check string) "non-dN suffix is identity" "mnist_l2@flight"
    (Campaign.instance_key r);
  Alcotest.(check int) "field domains" 1 (Campaign.effective_domains r);
  let r =
    mk ~instance:"acas_1_1" ~source_format:"onnx+vnnlib" ~domains:2
      ~verdict:"falsified (attack pgd)" ~wall:1.0 ()
  in
  Alcotest.(check string) "3-axis family" "onnx+vnnlib/acas/d2" (Campaign.family r);
  Alcotest.(check bool) "falsified counts solved" true (Campaign.solved r);
  Alcotest.(check bool) "timeout is unsolved" false
    (Campaign.solved (mk ~instance:"x" ~verdict:"timeout" ~wall:1.0 ()))

let test_commits_select () =
  let t = load_pair () in
  Alcotest.(check (list string)) "commit timeline" [ "aaa1111"; "bbb2222" ]
    (Campaign.commits t);
  Alcotest.(check (option string)) "head commit" (Some "bbb2222")
    (Campaign.head_commit t);
  Alcotest.(check int) "all records ingested" 21 (List.length t.Campaign.records);
  Alcotest.(check int) "no issues in clean fixtures" 0
    (List.length t.Campaign.issues);
  let sel = Campaign.select ~commit:"aaa1111" t in
  Alcotest.(check int) "re-run deduped to latest" 10 (List.length sel);
  let abonn_acas =
    List.find
      (fun (r : Registry.record) -> r.engine = "abonn" && r.instance = "acas_1_1")
      sel
  in
  Alcotest.(check (float 1e-9)) "latest record won" 1.0 abonn_acas.Registry.wall

(* --- PAR-2 / cactus / matrix --------------------------------------- *)

let test_par2 () =
  let t = load_pair () in
  let sel = Campaign.select ~commit:"aaa1111" t in
  let budget, rows = Campaign.par2 sel in
  Alcotest.(check (float 1e-9)) "default budget = max wall" 10.0 budget;
  let row e = List.find (fun (r : Campaign.par2_row) -> r.engine = e) rows in
  Alcotest.(check (float 1e-6)) "abonn PAR-2" 1.625 (row "abonn").Campaign.par2;
  Alcotest.(check (float 1e-4)) "bab PAR-2 (1 timeout = 2x budget)"
    (26.0 /. 3.0) (row "bab").Campaign.par2;
  Alcotest.(check (float 1e-4)) "random PAR-2" (40.8 /. 3.0)
    (row "random").Campaign.par2;
  Alcotest.(check int) "abonn solved all 4" 4 (row "abonn").Campaign.solved_n;
  (* explicit budget overrides *)
  let _, rows = Campaign.par2 ~budget:100.0 sel in
  let bab = List.find (fun (r : Campaign.par2_row) -> r.engine = "bab") rows in
  Alcotest.(check (float 1e-4)) "budget override applied"
    ((2.0 +. 4.0 +. 200.0) /. 3.0) bab.Campaign.par2

let test_cactus () =
  let t = load_pair () in
  let sel = Campaign.select ~commit:"aaa1111" t in
  let curves = Campaign.cactus sel in
  let abonn = List.assoc "abonn" curves in
  Alcotest.(check (list (pair int (float 1e-9))))
    "abonn staircase sorted by wall"
    [ (1, 0.5); (2, 1.0); (3, 2.0); (4, 3.0) ]
    (List.map (fun (p : Campaign.cactus_point) -> (p.nth, p.wall)) abonn);
  let csv = Campaign.cactus_to_csv curves in
  Alcotest.(check bool) "csv header" true
    (String.length csv > 20 && String.sub csv 0 20 = "engine,solved,wall_s");
  Alcotest.(check string) "csv deterministic" csv
    (Campaign.cactus_to_csv (Campaign.cactus sel));
  let svg = Campaign.cactus_to_svg curves in
  Alcotest.(check string) "svg deterministic" svg
    (Campaign.cactus_to_svg (Campaign.cactus sel));
  Alcotest.(check bool) "svg has one polyline per engine" true
    (let count = ref 0 in
     String.iteri
       (fun i c ->
         if c = '<' && i + 9 <= String.length svg
            && String.sub svg i 9 = "<polyline" then incr count)
       svg;
     !count = 3)

let test_matrix () =
  let t = load_pair () in
  let sel = Campaign.select ~commit:"bbb2222" t in
  let engines, families, get = Campaign.matrix sel in
  Alcotest.(check (list string)) "engines sorted" [ "abonn"; "bab"; "random" ]
    engines;
  Alcotest.(check (list string)) "families sorted"
    [ "native/acas/d1"; "native/acas/d4"; "onnx+vnnlib/mnist/d1" ]
    families;
  let c = get "abonn" "native/acas/d1" in
  Alcotest.(check int) "abonn acas runs" 2 c.Campaign.cell_runs;
  Alcotest.(check int) "abonn acas wins (strictly fastest on acas_1_1)" 1
    c.Campaign.wins;
  Alcotest.(check int) "abonn acas losses (acas_1_2 unsolved by all: none)" 0
    c.Campaign.losses;
  let c = get "random" "native/acas/d1" in
  Alcotest.(check int) "random loses acas_1_1 (unsolved while beaten)" 1
    c.Campaign.losses;
  let c = get "random" "onnx+vnnlib/mnist/d1" in
  Alcotest.(check int) "random wins mnist_0 (fastest falsifier)" 1 c.Campaign.wins;
  let c = get "abonn" "native/acas/d4" in
  Alcotest.(check int) "solo identity: no win" 0 c.Campaign.wins;
  let c = get "bab" "native/acas/d4" in
  Alcotest.(check int) "bab never ran the d4 family" 0 c.Campaign.cell_runs

(* --- trends and attribution ----------------------------------------- *)

let test_trends_attribution () =
  let t = load_pair () in
  let rows = Campaign.trends ~budget:10.0 t in
  Alcotest.(check (list string)) "trend timeline"
    [ "aaa1111"; "bbb2222" ]
    (List.map (fun (r : Campaign.trend_row) -> r.trend_commit) rows);
  let head = List.nth rows 1 in
  Alcotest.(check int) "head solved count" 6 head.Campaign.trend_solved;
  let a = Campaign.attribute ~base:"aaa1111" ~head:"bbb2222" t in
  Alcotest.(check int) "all pairs matched" 10 (List.length a.Campaign.pairs);
  Alcotest.(check int) "nothing unmatched" 0 a.Campaign.unmatched_base;
  Alcotest.(check int) "one run became unsolved" 1 a.Campaign.newly_unsolved;
  Alcotest.(check int) "none became solved" 0 a.Campaign.newly_solved;
  match a.Campaign.pairs with
  | top :: _ ->
    Alcotest.(check string) "worst regression named" "acas/acas_1_2"
      top.Campaign.pair_instance;
    Alcotest.(check (float 1e-9)) "worst regression delta" 8.0 top.Campaign.delta
  | [] -> Alcotest.fail "no pairs"

(* --- golden byte-stability ------------------------------------------ *)

let test_report_md_golden () =
  let t = load_pair () in
  match Campaign.report ~against:"aaa1111" ~budget:10.0 t Campaign.Md with
  | Error msg -> Alcotest.failf "report: %s" msg
  | Ok text ->
    Alcotest.(check string) "md report matches committed golden bytes"
      (read_file (fx "report_golden.md"))
      text

let test_report_errors () =
  let t = load_pair () in
  (match Campaign.report ~commit:"nope" t Campaign.Md with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "unknown commit must be an error");
  (match Campaign.report ~against:"nope" t Campaign.Md with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "unknown --against commit must be an error");
  match Campaign.report { Campaign.records = []; issues = [] } Campaign.Md with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty registry must be an error"

let test_perfetto_golden () =
  let events, issues = Reader.read_file (Filename.concat "fixtures" "golden.jsonl") in
  Alcotest.(check int) "clean fixture" 0 (List.length issues);
  Alcotest.(check string) "perfetto export matches committed golden bytes"
    (read_file (fx "perfetto_golden.json"))
    (Perfetto.to_string events)

let test_perfetto_introspect () =
  let events, _ =
    Reader.read_file (Filename.concat "fixtures" "golden_introspect.jsonl")
  in
  let a = Perfetto.to_string events in
  Alcotest.(check string) "deterministic" a (Perfetto.to_string events);
  match Json.of_string a with
  | exception Parse_error.Error e ->
    Alcotest.failf "export is not valid JSON: %s" (Parse_error.to_string e)
  | Json.Obj fields ->
    (match List.assoc_opt "traceEvents" fields with
     | Some (Json.Arr rows) ->
       Alcotest.(check bool) "non-trivial event count" true (List.length rows > 100);
       List.iter
         (function
           | Json.Obj row ->
             Alcotest.(check bool) "every row has name/ph/pid" true
               (List.mem_assoc "name" row && List.mem_assoc "ph" row
                && List.mem_assoc "pid" row);
             (* the exporter writes ts with %.3f: a JSON float, never a
                string, so "inf" must not pass *)
             (match List.assoc_opt "ts" row with
              | Some (Json.Float ts) ->
                Alcotest.(check bool) "timestamps never negative" true (ts >= 0.0)
              | Some _ -> Alcotest.fail "ts must be a number"
              | None -> () (* metadata rows carry no ts *))
           | _ -> Alcotest.fail "every trace event must be an object")
         rows;
       let phs =
         List.filter_map
           (function
             | Json.Obj row -> Option.bind (List.assoc_opt "ph" row) Json.as_string
             | _ -> None)
           rows
       in
       let has p = List.mem p phs in
       Alcotest.(check bool) "has spans, instants, counters and metadata" true
         (has "X" && has "i" && has "C" && has "M")
     | _ -> Alcotest.fail "traceEvents must be an array")
  | _ -> Alcotest.fail "export must be a JSON object"

let test_trace_attribution_dominant () =
  let base, _ = Reader.read_file (Filename.concat "fixtures" "golden.jsonl") in
  (* seed a slowdown: triple every AppVer bound-computation time *)
  let head =
    List.map
      (fun (env : Event.envelope) ->
        match env.Event.event with
        | Event.Bound_computed b ->
          { env with
            Event.event = Event.Bound_computed { b with elapsed = b.elapsed *. 3.0 } }
        | _ -> env)
      base
  in
  let ta = Campaign.trace_attribute ~base ~head in
  (match ta.Campaign.dominant with
   | Some (name, d) ->
     Alcotest.(check string) "dominant phase is the seeded one" "appver.deeppoly"
       name;
     Alcotest.(check bool) "positive delta" true (d > 0.0)
   | None -> Alcotest.fail "a seeded slowdown must have a dominant phase");
  let ta = Campaign.trace_attribute ~base ~head:base in
  Alcotest.(check bool) "identical traces have no dominant delta" true
    (ta.Campaign.dominant = None)

(* --- registry lint / gc --------------------------------------------- *)

let test_lint () =
  let r = Registry.lint [ reg_bad ] in
  Alcotest.(check int) "lines" 6 r.Registry.lines;
  Alcotest.(check int) "parsed" 4 r.Registry.parsed;
  Alcotest.(check int) "distinct" 3 r.Registry.distinct;
  let count p = List.length (List.filter p r.Registry.lint_issues) in
  Alcotest.(check int) "malformed lines" 2
    (count (function Registry.Lint_malformed _ -> true | _ -> false));
  Alcotest.(check int) "duplicate records" 1
    (count (function Registry.Lint_duplicate _ -> true | _ -> false));
  Alcotest.(check int) "unstamped records (empty ts, unknown commit)" 2
    (count (function Registry.Lint_unstamped _ -> true | _ -> false));
  (* clean fixtures lint clean *)
  let r = Registry.lint [ reg_a; reg_b ] in
  Alcotest.(check (list string)) "clean files" []
    (List.map Registry.lint_issue_to_string r.Registry.lint_issues);
  Alcotest.(check int) "both files counted" 21 r.Registry.distinct;
  match Registry.lint [ "fixtures/campaign/definitely_missing.jsonl" ] with
  | exception Sys_error _ -> ()
  | _ -> Alcotest.fail "missing file must raise"

let test_gc () =
  let tmp = Filename.temp_file "abonn_gc" ".jsonl" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists tmp then Sys.remove tmp)
  @@ fun () ->
  let oc = open_out tmp in
  output_string oc (read_file reg_bad);
  close_out oc;
  let kept, dropped = Registry.gc tmp in
  Alcotest.(check int) "kept distinct records" 3 kept;
  Alcotest.(check int) "dropped malformed + duplicates" 3 dropped;
  let r = Registry.lint [ tmp ] in
  Alcotest.(check int) "no malformed or duplicate left" 2
    (List.length r.Registry.lint_issues);
  Alcotest.(check bool) "remaining issues are unstamped only" true
    (List.for_all
       (function Registry.Lint_unstamped _ -> true | _ -> false)
       r.Registry.lint_issues);
  (* idempotent *)
  let kept2, dropped2 = Registry.gc tmp in
  Alcotest.(check int) "gc is idempotent" kept kept2;
  Alcotest.(check int) "nothing more to drop" 0 dropped2

(* --- tail-mode registry reading -------------------------------------
   The registry is appended to by live runs; the follow-mode reader
   must hold back a record cut mid-line by the writer's buffering and
   deliver it intact on a later poll, across record schemas. *)

let test_tail_registry_lines () =
  let l1 =
    {|{"schema":1,"ts":"2026-08-01T00:00:00Z","commit":"aaa1111","engine":"e1","model":"m","instance":"i1","seed":0,"verdict":"verified","wall":1.000000,"calls":1,"nodes":1,"max_depth":1,"peak_rss_bytes":0}|}
  and l2 =
    {|{"schema":2,"ts":"2026-08-01T00:00:01Z","commit":"aaa1111","engine":"e2","model":"m","instance":"i2","seed":0,"domains":4,"verdict":"timeout","wall":2.000000,"calls":2,"nodes":2,"max_depth":2,"peak_rss_bytes":0}|}
  and l3 =
    {|{"schema":3,"ts":"2026-08-01T00:00:02Z","commit":"aaa1111","engine":"e3","model":"m","instance":"i3","seed":0,"domains":1,"source_format":"onnx+vnnlib","verdict":"falsified","wall":3.000000,"calls":3,"nodes":3,"max_depth":3,"peak_rss_bytes":0}|}
  in
  let tmp = Filename.temp_file "abonn_tailreg" ".jsonl" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists tmp then Sys.remove tmp)
  @@ fun () ->
  let append s =
    let oc = open_out_gen [ Open_append ] 0o644 tmp in
    output_string oc s;
    close_out oc
  in
  (* first poll: one whole line plus a record truncated mid-field *)
  let cut = String.length l2 / 2 in
  append (l1 ^ "\n" ^ String.sub l2 0 cut);
  let tail = Reader.tail_open tmp in
  Fun.protect ~finally:(fun () -> Reader.tail_close tail) @@ fun () ->
  let got = ref [] in
  let poll () =
    Reader.tail_poll_lines tail ~f:(fun ~line_no line ->
        got := (line_no, line) :: !got)
  in
  poll ();
  Alcotest.(check (list (pair int string)))
    "partial final record held back" [ (1, l1) ] (List.rev !got);
  (* the rest of the cut record arrives, plus a whole schema-3 line *)
  append (String.sub l2 cut (String.length l2 - cut) ^ "\n" ^ l3 ^ "\n");
  got := [];
  poll ();
  Alcotest.(check (list (pair int string)))
    "deferred record delivered intact with its line number"
    [ (2, l2); (3, l3) ]
    (List.rev !got);
  (* every delivered line parses as its schema's record *)
  List.iter
    (fun (_, line) ->
      match Registry.of_json line with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "tail-delivered line failed to parse: %s" msg)
    (List.rev !got);
  (* nothing more *)
  got := [];
  poll ();
  Alcotest.(check (list (pair int string))) "quiescent" [] !got

let suite =
  [ ( "campaign",
      [ Alcotest.test_case "normalisation" `Quick test_normalisation;
        Alcotest.test_case "commits and selection" `Quick test_commits_select;
        Alcotest.test_case "par2" `Quick test_par2;
        Alcotest.test_case "cactus" `Quick test_cactus;
        Alcotest.test_case "matrix" `Quick test_matrix;
        Alcotest.test_case "trends and attribution" `Quick test_trends_attribution;
        Alcotest.test_case "report md golden bytes" `Quick test_report_md_golden;
        Alcotest.test_case "report error paths" `Quick test_report_errors;
        Alcotest.test_case "perfetto golden bytes" `Quick test_perfetto_golden;
        Alcotest.test_case "perfetto introspect structural" `Quick
          test_perfetto_introspect;
        Alcotest.test_case "trace attribution dominant phase" `Quick
          test_trace_attribution_dominant;
        Alcotest.test_case "registry lint" `Quick test_lint;
        Alcotest.test_case "registry gc" `Quick test_gc;
        Alcotest.test_case "tail registry lines" `Quick test_tail_registry_lines
      ] )
  ]
