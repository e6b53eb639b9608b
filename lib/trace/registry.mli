(** Campaign run registry: an append-only JSONL log of completed runs.

    Every run of the harness, the CLI (with [--registry]) and the bench
    binaries appends one flat, self-contained JSON record to
    {!default_path} — what ran (engine, model, instance, seed), on what
    code ([commit]), with what outcome (verdict) and at what cost (wall
    time, AppVer calls, nodes, peak RSS).  The file is the input to
    cross-commit performance comparisons and the CI artifact uploaded
    by the differential-suite job. *)

type record = {
  schema : int;  (** record layout version; currently {!schema_version} *)
  ts : string;  (** UTC ISO-8601 append time *)
  commit : string;  (** short git hash, or ["unknown"] *)
  engine : string;
  model : string;
  instance : string;
  seed : int;
  domains : int;
      (** worker domains the run used; [1] = sequential (and the implied
          value for schema-1 records, which predate the field) *)
  source_format : string;
      (** where the problem came from: ["native"] (zoo model or abonn
          problem file), ["onnx+vnnlib"] (--onnx/--vnnlib front-end) or
          ["synthetic"] (generated in-process, e.g. bench MLPs).  The
          implied value for schema-1/2 records, which predate the field,
          is ["native"]. *)
  verdict : string;
  wall : float;  (** seconds *)
  calls : int;  (** AppVer bound computations *)
  nodes : int;  (** BaB nodes created *)
  max_depth : int;
  peak_rss_bytes : int;  (** process peak RSS at append time *)
}

val schema_version : int

val make :
  ?ts:string ->
  ?commit:string ->
  ?peak_rss_bytes:int ->
  ?domains:int ->
  ?source_format:string ->
  engine:string ->
  model:string ->
  instance:string ->
  seed:int ->
  verdict:string ->
  wall:float ->
  calls:int ->
  nodes:int ->
  max_depth:int ->
  unit ->
  record
(** Build a record; [ts], [commit] and [peak_rss_bytes] default to the
    current time, {!Abonn_util.Provenance.git_commit} and
    {!Abonn_obs.Resource.peak_rss} respectively; [domains] defaults to
    [1] (sequential) and [source_format] to ["native"]. *)

val to_json : record -> string
(** One flat JSON object, no trailing newline. *)

val of_json : ?source:string -> ?line:int -> string -> (record, string) result
(** Parses current (schema 3) and legacy lines: schema-1 lines get
    [domains = 1], schema-1/2 lines get [source_format = "native"].
    [Error] carries a positioned diagnostic,
    [SOURCE:LINE:COL: malformed record: ...], with [source] (default
    ["<string>"]) and [line] (default [1]) naming where the text came
    from. *)

val default_path : string
(** ["results/registry.jsonl"], relative to the working directory. *)

val append : ?path:string -> record -> unit
(** Append one record (creating the directory and file as needed). *)

val load : ?path:string -> unit -> record list * (int * string) list
(** All parseable records in file order, plus [(line, message)] pairs
    for lines that failed to parse (messages positioned as by
    {!of_json}).  A missing file is empty, not an
    error. *)

val fold_lines : string -> init:'a -> f:('a -> int -> string -> 'a) -> 'a
(** Fold [f acc line_no line] over every non-empty line of the file
    (1-based line numbers, empty lines counted but skipped).  Unlike
    {!load}, a missing file raises [Sys_error] — lint and campaign
    ingestion must distinguish "nothing ran" from "wrong path". *)

(** {1 Lint / compaction}

    The registry accretes lines from many writers over many commits:
    truncated appends (malformed JSON), double appends from retried CI
    jobs (duplicates), and records stamped outside a git checkout
    (commit ["unknown"]) that parse fine but cannot be joined by
    commit.  {!lint} reports all three classes in one pass over any mix
    of schema-1/2/3 files; {!gc} dedup-compacts a file in place. *)

type lint_issue =
  | Lint_malformed of { file : string; line : int; msg : string }
      (** [msg] is {!of_json}'s positioned diagnostic. *)
  | Lint_duplicate of {
      file : string;
      line : int;
      first_file : string;
      first_line : int;
    }  (** An identical record already appeared at [first_file:first_line]. *)
  | Lint_unstamped of { file : string; line : int; field : string }
      (** The record parses but its [commit] (empty / ["unknown"]) or
          [ts] (empty) is unusable for cross-commit joins. *)

val lint_issue_pos : lint_issue -> string * int
(** [(file, 1-based line)] the issue was found at. *)

val lint_issue_to_string : lint_issue -> string

type lint_report = {
  files : string list;
  lines : int;  (** non-empty lines seen *)
  parsed : int;  (** lines that parsed as records *)
  distinct : int;  (** parsed minus duplicates *)
  by_schema : (int * int) list;  (** schema version -> record count *)
  lint_issues : lint_issue list;  (** file order, then line order *)
}

val lint : string list -> lint_report
(** One pass over the given files.  Raises [Sys_error] on a missing
    file. *)

val lint_report_to_string : lint_report -> string

val gc : ?out:string -> string -> int * int
(** Rewrite [path] (or [out] when given) keeping the first occurrence
    of every distinct record with its original bytes — no silent schema
    upgrade — and dropping malformed lines and later duplicates.  The
    write goes through a [.tmp] sibling and a rename.  Returns
    [(kept, dropped)].  Raises [Sys_error] on a missing file. *)
