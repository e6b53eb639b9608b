(* Campaign run registry: one flat JSON line per completed run,
   appended to results/registry.jsonl by the harness, the CLI and the
   bench binaries.  The record is deliberately denormalised — every
   line answers "what ran, on what code, with what outcome and at what
   cost" on its own — so the file can be grepped, diffed across
   branches and joined by commit without any tooling. *)

module Json = Abonn_util.Json
module Parse_error = Abonn_util.Parse_error
module Provenance = Abonn_util.Provenance

let schema_version = 3

type record = {
  schema : int;
  ts : string;  (* UTC ISO-8601 append time *)
  commit : string;
  engine : string;
  model : string;
  instance : string;
  seed : int;
  domains : int;
  source_format : string;
  verdict : string;
  wall : float;
  calls : int;
  nodes : int;
  max_depth : int;
  peak_rss_bytes : int;
}

let make ?ts ?commit ?(peak_rss_bytes = -1) ?(domains = 1)
    ?(source_format = "native") ~engine ~model ~instance ~seed ~verdict ~wall
    ~calls ~nodes ~max_depth () =
  let ts = match ts with Some t -> t | None -> Provenance.iso_now () in
  let commit = match commit with Some c -> c | None -> Provenance.git_commit () in
  let peak_rss_bytes =
    if peak_rss_bytes >= 0 then peak_rss_bytes
    else Abonn_obs.Resource.peak_rss ()
  in
  { schema = schema_version; ts; commit; engine; model; instance; seed;
    domains; source_format; verdict; wall; calls; nodes; max_depth;
    peak_rss_bytes }

let to_json r =
  let q s = Json.to_string (Str s) in
  Printf.sprintf
    "{\"schema\":%d,\"ts\":%s,\"commit\":%s,\"engine\":%s,\"model\":%s,\
     \"instance\":%s,\"seed\":%d,\"domains\":%d,\"source_format\":%s,\
     \"verdict\":%s,\"wall\":%.6f,\
     \"calls\":%d,\"nodes\":%d,\"max_depth\":%d,\"peak_rss_bytes\":%d}"
    r.schema (q r.ts) (q r.commit) (q r.engine) (q r.model) (q r.instance)
    r.seed r.domains (q r.source_format) (q r.verdict) r.wall r.calls r.nodes
    r.max_depth r.peak_rss_bytes

let of_json ?(source = "<string>") ?(line = 1) text =
  let malformed (e : Parse_error.t) =
    Error (Parse_error.to_string { e with msg = "malformed record: " ^ e.msg })
  in
  match Json.of_string ~source ~line text with
  | exception Parse_error.Error e -> malformed e
  | json ->
    let get conv name = Option.bind (Json.member name json) conv in
    let str = get Json.as_string and int = get Json.as_int in
    (match
       (int "schema", str "ts", str "commit", str "engine", str "model",
        str "instance", int "seed", str "verdict", get Json.as_float "wall",
        int "calls", int "nodes", int "max_depth", int "peak_rss_bytes")
     with
     | ( Some schema, Some ts, Some commit, Some engine, Some model,
         Some instance, Some seed, Some verdict, Some wall, Some calls,
         Some nodes, Some max_depth, Some peak_rss_bytes ) ->
       (* [domains] arrived with schema 2; schema-1 lines predate
          parallel bookkeeping and were all sequential runs.
          [source_format] arrived with schema 3; older lines were all
          native-format problems. *)
       let domains = Option.value ~default:1 (int "domains") in
       let source_format = Option.value ~default:"native" (str "source_format") in
       Ok { schema; ts; commit; engine; model; instance; seed; domains;
            source_format; verdict; wall; calls; nodes; max_depth;
            peak_rss_bytes }
     | _ ->
       malformed
         { source; pos = Line { line; col = 1 }; token = "";
           msg = "missing or mistyped field" })

let default_path = Filename.concat "results" "registry.jsonl"

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let append ?(path = default_path) r =
  mkdir_p (Filename.dirname path);
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) @@ fun () ->
  output_string oc (to_json r);
  output_char oc '\n'

let load ?(path = default_path) () =
  if not (Sys.file_exists path) then ([], [])
  else begin
    let ic = open_in path in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
    let records = ref [] and errors = ref [] in
    let rec go line_no =
      match input_line ic with
      | exception End_of_file -> ()
      | "" -> go (line_no + 1)
      | line ->
        (match of_json ~source:path ~line:line_no line with
         | Ok r -> records := r :: !records
         | Error msg -> errors := (line_no, msg) :: !errors);
        go (line_no + 1)
    in
    go 1;
    (List.rev !records, List.rev !errors)
  end

(* --- lint / gc ----------------------------------------------------

   The registry accretes lines from many writers over many commits, so
   it degrades in predictable ways: truncated appends (malformed JSON),
   double appends from retried CI jobs (duplicate records), and records
   written outside a git checkout (commit "unknown" / "") that parse
   fine but cannot be joined by commit.  [lint] makes one pass over any
   mix of schema-1/2/3 files and reports all three classes; [gc]
   rewrites a file keeping the first occurrence of every distinct
   record, preserving original line bytes (no silent schema upgrade). *)

type lint_issue =
  | Lint_malformed of { file : string; line : int; msg : string }
  | Lint_duplicate of { file : string; line : int; first_file : string; first_line : int }
  | Lint_unstamped of { file : string; line : int; field : string }

let lint_issue_pos = function
  | Lint_malformed { file; line; _ }
  | Lint_duplicate { file; line; _ }
  | Lint_unstamped { file; line; _ } -> (file, line)

let lint_issue_to_string = function
  | Lint_malformed { msg; _ } -> msg
  | Lint_duplicate { file; line; first_file; first_line } ->
    Printf.sprintf "%s:%d: duplicate of %s:%d" file line first_file first_line
  | Lint_unstamped { file; line; field } ->
    Printf.sprintf "%s:%d: record without usable %s (cannot be joined by commit)"
      file line field

type lint_report = {
  files : string list;
  lines : int;        (* non-empty lines seen *)
  parsed : int;       (* lines that parsed as records *)
  distinct : int;     (* parsed minus duplicates *)
  by_schema : (int * int) list;  (* schema version -> record count *)
  lint_issues : lint_issue list; (* file order, then line order *)
}

(* a record is unstamped when it parses but its provenance fields carry
   no usable value — "unknown" is what Provenance.git_commit degrades to
   outside a checkout *)
let unstamped_field r =
  if r.commit = "" || r.commit = "unknown" then Some "commit"
  else if r.ts = "" then Some "ts"
  else None

let fold_lines path ~init ~f =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let rec go acc line_no =
    match input_line ic with
    | exception End_of_file -> acc
    | "" -> go acc (line_no + 1)
    | line -> go (f acc line_no line) (line_no + 1)
  in
  go init 1

let lint paths =
  let issues = ref [] and by_schema = Hashtbl.create 4 in
  let seen : (record, string * int) Hashtbl.t = Hashtbl.create 256 in
  let lines = ref 0 and parsed = ref 0 in
  List.iter
    (fun file ->
      ignore
        (fold_lines file ~init:() ~f:(fun () line_no line ->
             incr lines;
             match of_json ~source:file ~line:line_no line with
             | Error msg ->
               issues := Lint_malformed { file; line = line_no; msg } :: !issues
             | Ok r ->
               incr parsed;
               Hashtbl.replace by_schema r.schema
                 (1 + Option.value ~default:0 (Hashtbl.find_opt by_schema r.schema));
               (match unstamped_field r with
                | Some field ->
                  issues := Lint_unstamped { file; line = line_no; field } :: !issues
                | None -> ());
               (match Hashtbl.find_opt seen r with
                | Some (first_file, first_line) ->
                  issues :=
                    Lint_duplicate { file; line = line_no; first_file; first_line }
                    :: !issues
                | None -> Hashtbl.replace seen r (file, line_no)))))
    paths;
  { files = paths;
    lines = !lines;
    parsed = !parsed;
    distinct = Hashtbl.length seen;
    by_schema =
      Hashtbl.fold (fun s c acc -> (s, c) :: acc) by_schema []
      |> List.sort (fun (a, _) (b, _) -> compare a b);
    lint_issues = List.rev !issues }

let lint_report_to_string r =
  let buf = Buffer.create 256 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "registry lint: %s" (String.concat ", " r.files);
  line "  %d line(s), %d parsed, %d distinct record(s)" r.lines r.parsed r.distinct;
  List.iter (fun (s, c) -> line "  schema %d: %d record(s)" s c) r.by_schema;
  List.iter (fun i -> line "  %s" (lint_issue_to_string i)) r.lint_issues;
  line "lint: %s"
    (if r.lint_issues = [] then "OK"
     else Printf.sprintf "%d issue(s)" (List.length r.lint_issues));
  Buffer.contents buf

(* Dedup-compact in place (or to [out]): keep the first occurrence of
   every distinct record with its original bytes, drop malformed lines
   and later duplicates.  Returns (kept, dropped). *)
let gc ?out path =
  let seen : (record, unit) Hashtbl.t = Hashtbl.create 256 in
  let kept = ref [] and dropped = ref 0 in
  ignore
    (fold_lines path ~init:() ~f:(fun () _line_no line ->
         match of_json line with
         | Error _ -> incr dropped
         | Ok r ->
           if Hashtbl.mem seen r then incr dropped
           else begin
             Hashtbl.replace seen r ();
             kept := line :: !kept
           end));
  let target = Option.value ~default:path out in
  let tmp = target ^ ".tmp" in
  mkdir_p (Filename.dirname target);
  let oc = open_out tmp in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () ->
      List.iter
        (fun l ->
          output_string oc l;
          output_char oc '\n')
        (List.rev !kept));
  Sys.rename tmp target;
  (List.length !kept, !dropped)
