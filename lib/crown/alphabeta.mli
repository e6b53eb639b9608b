(** αβ-CROWN-style baseline verifier (§V-A).

    The paper's second baseline is the αβ-CROWN tool — "the
    state-of-the-art verification tool … with various sophisticated
    heuristics".  This module reproduces its *architecture* (DESIGN.md §4
    documents the substitution honestly; no feature parity is claimed):

    + a PGD/FGSM attack portfolio runs first, exactly like the real
      tool's warm start — violated instances often fall here without a
      single bound computation;
    + bounds come, by default, from the adaptive-slope CROWN relaxation
      ([Abonn_prop.Deeppoly] — the per-coefficient greedy optimum of the
      α choice for one back-substitution pass);
    + the BaB phase explores best-first on the certified bound (most
      violated sub-problem first) with filtered smart branching, the
      strongest classical configuration in this repository.

    Attack evaluations are concrete forward passes, orders of magnitude
    cheaper than an AppVer call; the run statistics count AppVer calls
    only, consistent with every other engine. *)

val verify :
  ?attack:Abonn_attack.Attack.t ->
  ?attack_seed:int ->
  ?appver:Abonn_prop.Appver.t ->
  ?heuristic:Abonn_bab.Branching.t ->
  ?budget:Abonn_util.Budget.t ->
  ?domains:int ->
  Abonn_spec.Problem.t ->
  Abonn_bab.Result.t
(** Defaults: best-effort attack portfolio, seed 0, DeepPoly AppVer,
    FSB branching.  [appver] and [domains] are forwarded to the
    best-first BaB phase (the attack portfolio stays sequential);
    [domains] defaults to
    [Abonn_par.Pool.default_domains ()] — see docs/PARALLELISM.md. *)
