(** Bench-baseline comparison behind [abonn_trace bench]: the CI
    performance regression gate.

    Loads two [BENCH_bab_nodes.json] files — the committed baseline and
    a fresh run — and compares per-instance cached node throughput plus
    the geomean speedup.  Accepts both the stamped layout
    ([{"schema":1, "commit":…, "rows":{…}}]) and the pre-stamp flat
    layout, so the gate works against historical baselines.  Kernel
    bench files ([BENCH_kernels.json], rows carrying [ns_per_run]) are
    accepted too: those rows are exposed as runs/sec in [nps_cached],
    so the same higher-is-better gate covers the kernel
    micro-benchmarks ([kernel_lp_warm] among them).  Files are read
    through {!Abonn_util.Json}; a malformed one is a positioned error,
    never an exception. *)

type row = {
  nps_cached : float;
      (** [nodes_per_sec_cached] — the gated metric; for kernel rows,
          [1e9 / ns_per_run] *)
  nps_uncached : float option;
  speedup : float option;
  peak_rss_bytes : int option;  (** present in stamped files only *)
}

type bench = {
  commit : string option;
  date : string option;
  geomean_speedup : float option;
  rows : (string * row) list;  (** file order *)
}

val load_string : ?source:string -> string -> (bench, string) result
(** Read a bench file's text through {!Abonn_util.Json}.  [Error]
    names [source] (default ["<string>"]) once; a JSON syntax error is
    positioned, [SOURCE:LINE:COL: message].  Never raises. *)

val load_file : string -> (bench, string) result
(** {!load_string} with the path as [source]; a missing file is an
    error. *)

type verdict = {
  name : string;
  baseline_nps : float;  (** after [scale_baseline] *)
  fresh_nps : float;
  delta_pct : float;  (** negative = fresh slower than baseline *)
  regressed : bool;
  baseline_rss : int option;
  fresh_rss : int option;
}

type report = {
  verdicts : verdict list;
  missing : string list;  (** baseline rows absent from the fresh run *)
  geomean_baseline : float option;
  geomean_fresh : float option;
  geomean_regressed : bool;
  ok : bool;  (** no row regressed, no row missing, geomean held *)
}

val compare_benches :
  ?scale_baseline:float ->
  max_regress:float ->
  baseline:bench ->
  fresh:bench ->
  unit ->
  report
(** A row regresses when fresh throughput falls more than [max_regress]
    percent below the baseline (so [~max_regress:20.] tolerates a 20%
    slowdown).  [scale_baseline] multiplies the baseline numbers first —
    CI uses [~scale_baseline:10.] as a synthetic must-fail check that
    the gate actually trips. *)

val report_to_string : max_regress:float -> report -> string
(** Table with throughput deltas and the peak-RSS columns, ending in a
    PASS/FAIL line. *)

(** {2 Instrumentation overhead gate}

    The bench binary can re-run instances with a sink or introspection
    sampling enabled, appending rows named [base@SUFFIX] (e.g.
    [mnist_l2@flight], [mnist_l2@i16]).  {!check_overhead} bounds the
    cached-throughput loss of each variant against its own base row in
    the {e same} file — no committed baseline involved, so the check is
    machine-speed independent ([abonn_trace bench --overhead]). *)

type overhead_verdict = {
  name : string;  (** base row name *)
  base_nps : float;
  variant_nps : float;
  overhead_pct : float;  (** positive = variant slower *)
  exceeded : bool;
}

type overhead_report = {
  suffix : string;
  max_pct : float;
  overhead_verdicts : overhead_verdict list;
  orphan_variants : string list;  (** variant rows without a base row *)
  overhead_ok : bool;
      (** every variant within budget, no orphans, and at least one
          variant row present (an empty set fails, so CI cannot pass
          vacuously) *)
}

val check_overhead : suffix:string -> max_pct:float -> bench -> overhead_report

val overhead_to_string : overhead_report -> string
(** Per-instance table ending in a PASS/FAIL line. *)
