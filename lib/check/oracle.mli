(** Soundness oracles: independent ground-truth checks for one problem.

    Each family interrogates a different layer of the stack and knows a
    cheaper or independent way to refute it:

    - {b Sampling}: concrete forward passes are the ultimate authority —
      any sampled violation refutes a [Verified] claim, and every
      reported counterexample must validate concretely.
    - {b Bounds}: the bound lattice.  Every propagation domain's hidden
      interval concretisations must contain the sampled pre-activations
      (at the root and under split constraints), every certified [p̂] and
      per-row lower bound must under-approximate the sampled margins, and
      the documented dominance order (DeepPoly at least as tight as
      plain intervals — the bound the αβ-CROWN-style stack claims) must
      hold.
    - {b Exact}: on nets with ≤ {!config.exact_max_relus} ReLUs, full
      enumeration of every ReLU phase cell through
      {!Abonn_bab.Exact.resolve} computes the true verdict, which the
      search engines and the sampled margins must both agree with.
    - {b Engines}: all five search engines (BFS, best-first, ABONN,
      αβ-CROWN-style, input splitting) must agree up to [Timeout], and
      every [Falsified] must carry a genuine counterexample.  Each
      frontier engine is additionally rerun on a 4-domain work-stealing
      pool (the [@d4] rows), differentially checking parallel against
      sequential verdicts — the executable form of the
      docs/PARALLELISM.md verdict-determinism contract.
    - {b Cert}: a [Verified] BFS run must produce a certificate that
      passes {!Abonn_bab.Certificate.check}; non-verified runs must not
      produce one.
    - {b Incremental}: the warm-started bound cache.  Along a
      root-to-leaf split path matching a probe point's ReLU phases, each
      warm DeepPoly evaluation must stay sound for the in-cell point,
      be contained in its parent's bounds (exact — intersection
      guarantees it), be no looser than from-scratch DeepPoly, and
      reproduce itself bit-for-bit when re-evaluated from its own state;
      BFS and best-first must agree cache-on vs cache-off (DeepPoly
      without its warm entry point) up to ties.
    - {b Formats}: the problem-ingestion front-end (docs/FORMATS.md).
      ONNX serialization must be deterministic, accepted back by its own
      reader with no forward drift beyond [tol], and a [parse . print]
      fixpoint; [Vnnlib.of_problem] must round-trip exactly through
      [to_string] and [parse]; BFS on the native problem and joined
      per-disjunct BFS on the round-tripped spec over the round-tripped
      network must agree up to [Timeout]; and on multi-row properties
      the lowered conjunctive max-gadget must compute [max(g_0, g_1)]
      exactly at every probe point.
    - {b Lp}: the warm-started dual simplex.  Along the same kind of
      phase-matched root-to-leaf path, each warm-started LP call
      ({!Abonn_lp.Lp_verifier.run_warm}, reusing the parent's cached
      optimal basis) must never be looser than a from-scratch cold
      solve of the same node (p̂ and every per-row bound; it may be
      tighter — the warm path inherits monotonically tightened
      pre-activation bounds from the parent), stay sound for the in-cell
      point, never declare its cell infeasible, and never be looser than
      DeepPoly on the same gamma; BFS with the LP AppVer must agree
      warm-on vs warm-off (no parent states) up to ties.

    Oracles are deterministic in [(seed, problem)] and never raise: an
    escaped exception is itself reported as a failure. *)

type family = Sampling | Bounds | Exact | Engines | Cert | Incremental | Lp | Formats

val all_families : family list

val family_name : family -> string
(** ["sampling" | "bounds" | "exact" | "engines" | "cert" | "incremental"
    | "lp" | "formats"]. *)

val family_of_string : string -> family option

type failure = {
  family : family;
  check : string;   (** dotted id of the violated invariant, e.g. ["bounds.phat-unsound"] *)
  detail : string;  (** human-readable evidence *)
}

type verdict = Pass | Fail of failure

val is_pass : verdict -> bool

type config = {
  samples : int;         (** sampled points per case (corners are added on top) *)
  engine_budget : int;   (** AppVer-call budget per engine invocation *)
  exact_max_relus : int; (** enumeration cap for the [Exact] family *)
  tol : float;           (** float slack for every soundness comparison *)
}

val default_config : config
(** 120 samples, 600-call budgets, 6-ReLU enumeration cap, [tol = 1e-6]. *)

val run : ?config:config -> seed:int -> family -> Abonn_spec.Problem.t -> verdict
(** Run one family.  [seed] drives the sampling stream. *)

val run_families :
  ?config:config -> seed:int -> family list -> Abonn_spec.Problem.t -> verdict
(** Run several families in order; the first failure wins. *)
