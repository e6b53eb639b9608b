(** Campaign analytics over the run registry.

    Where {!Summary}/{!Phases} explain one run, this module aggregates
    every registry line (all record schemas 1-3, any number of files)
    into the instance-set view the paper's evaluation is told in:
    solved-vs-time cactus curves, PAR-2 scores, per-engine x per-family
    win/loss matrices, cross-commit trends, and a cross-commit
    attribution that joins two commits' runs — optionally through their
    traces via {!Phases}/{!Explain} — into a causal "why did commit B
    get slower" breakdown.

    Every renderer is deterministic and byte-stable: identical inputs
    produce identical bytes, so the outputs serve as golden-test
    subjects and committed CI artifacts. *)

type issue = { file : string; line : int; msg : string }
(** [msg] is {!Registry.of_json}'s diagnostic, already positioned as
    [FILE:LINE:COL: ...]. *)

type t = {
  records : Registry.record list;  (** file order, then line order *)
  issues : issue list;  (** unparseable lines, positioned *)
}

val load : string list -> (t, string) result
(** Ingest registry files in order.  [Error] on an unreadable file;
    unparseable lines are collected as issues, not errors. *)

(** {1 Normalisation} *)

val instance_key : Registry.record -> string
(** The instance with a bench ["@dN"] domains suffix stripped (other
    ["@..."] variant suffixes are genuine instance identity and stay). *)

val effective_domains : Registry.record -> int
(** The record's parallel dimension: an ["@dN"] instance suffix (how
    schema-1 bench rows encoded it) wins over the [domains] field. *)

val family : Registry.record -> string
(** ["source_format/prefix/dN"] — the three family axes (source format,
    instance-name prefix before the first separator, domains). *)

val solved : Registry.record -> bool
(** ["verified"] or ["falsified..."] verdicts; timeouts and anything
    else count as unsolved. *)

(** {1 Commit timeline and selection} *)

val commits : t -> string list
(** Commits in first-appearance order (min [ts], then commit string —
    ISO-8601 UTC strings sort chronologically as bytes). *)

val head_commit : t -> string option
(** The newest commit, or [None] on an empty registry. *)

val select : commit:string -> t -> Registry.record list
(** The commit's runs, deduplicated to the latest record per identity
    (engine, model, instance, seed, domains, source format) and
    returned in deterministic sorted order. *)

(** {1 Analytics} *)

type cactus_point = { nth : int; wall : float }

val cactus : Registry.record list -> (string * cactus_point list) list
(** Per engine (sorted): the k-th cheapest solved run against its wall
    time — the classic solved-vs-time staircase. *)

val cactus_to_csv : (string * cactus_point list) list -> string

val cactus_to_svg : (string * cactus_point list) list -> string
(** Self-contained SVG plot (fixed canvas, palette and numeric formats). *)

type par2_row = {
  engine : string;
  runs : int;
  solved_n : int;
  par2 : float;
  geomean_solved_wall : float;  (** [nan] when nothing solved *)
}

val par2 : ?budget:float -> Registry.record list -> float * par2_row list
(** PAR-2 per engine: solved runs cost their wall time, unsolved runs
    twice the budget.  The registry records no per-run budget, so it
    defaults to the longest wall in the selection; the budget actually
    used is returned first. *)

type cell = { cell_runs : int; cell_solved : int; wins : int; losses : int }

val matrix :
  Registry.record list -> string list * string list * (string -> string -> cell)
(** [(engines, families, lookup)].  Within a family, engines compete
    per identity: the strictly fastest solver wins; leaving an identity
    unsolved that some other engine solved is a loss. *)

type trend_row = {
  trend_commit : string;
  first_ts : string;
  trend_runs : int;
  trend_solved : int;
  trend_par2 : float;  (** runs-weighted mean of the per-engine PAR-2 rows *)
  trend_geomean : float;
}

val trends : ?budget:float -> t -> trend_row list
(** One row per commit in timeline order. *)

(** {1 Cross-commit attribution} *)

type pair_delta = {
  pair_engine : string;
  pair_instance : string;
  base_wall : float;
  head_wall : float;
  delta : float;  (** positive = head slower *)
  base_solved : bool;
  head_solved : bool;
}

type attribution = {
  base_commit : string;
  head_commit : string;
  pairs : pair_delta list;  (** sorted, slowest regressions first *)
  unmatched_base : int;
  unmatched_head : int;
  total_delta : float;
  newly_unsolved : int;
  newly_solved : int;
}

val attribute : base:string -> head:string -> t -> attribution
(** Join the two commits' selections on run identity. *)

type trace_attribution = {
  phase_deltas : (string * float * float) list;  (** name, base s, head s *)
  dominant : (string * float) option;
      (** the phase with the largest positive (slower-in-head) delta *)
  wasted_base : float;
  wasted_head : float;
  reuse_events_base : int;
  reuse_events_head : int;
  layers_skipped_base : int;
  layers_skipped_head : int;
}

val trace_attribute :
  base:Abonn_obs.Event.envelope list ->
  head:Abonn_obs.Event.envelope list ->
  trace_attribution
(** Charge a wall-time regression to phases by joining the two traces'
    {!Phases} accounting, and surface search-quality shifts via the
    {!Explain} wasted-work fraction and the bound_reuse annotations. *)

(** {1 Rendering} *)

type format = Md | Csv | Svg

val format_of_string : string -> format option

val report :
  ?against:string ->
  ?trace_pair:trace_attribution ->
  ?budget:float ->
  ?commit:string ->
  t ->
  format ->
  (string, string) result
(** The full campaign report.  [Md] renders every section (PAR-2,
    cactus summary, engine x family matrix, cross-commit trend, and —
    with [?against] / [?trace_pair] — the attribution sections); [Csv]
    and [Svg] render the cactus curves of the selected commit.
    [?commit] defaults to {!head_commit}; unknown commits are
    [Error]. *)
