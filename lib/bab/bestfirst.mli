(** Best-first branch-and-bound.

    A stronger classical exploration order than the breadth-first
    baseline: the frontier is a priority queue keyed by the certified
    bound [p̂], so the sub-problem the relaxation considers *most
    violated* is always expanded next.  Children are evaluated when
    created (their bound is the key) with the shared {!Expand} node
    step, and counted as nodes then: a counterexample in the first
    child ends the run before the second is created.  This engine is
    the search backbone of the αβ-CROWN-style baseline
    ([Abonn_crown]), which runs {!search} on a run it names itself. *)

val search : ?heuristic:Branching.t -> ?domains:int -> Expand.t -> Result.t
(** Best-first BaB on a run created by the caller ({!Expand.create}),
    which names the engine in traces and metrics.  [heuristic] and
    [domains] default as in {!verify}. *)

val verify :
  ?appver:Abonn_prop.Appver.t ->
  ?heuristic:Branching.t ->
  ?budget:Abonn_util.Budget.t ->
  ?domains:int ->
  Abonn_spec.Problem.t ->
  Result.t
(** Defaults: DeepPoly AppVer, DeepSplit heuristic, unlimited budget,
    [domains = Abonn_par.Pool.default_domains ()].

    [domains = 1] is the sequential heap engine.  [domains > 1] runs
    [Parfrontier.run], the pool loop [Bfs] uses too: the global
    best-first priority order does {e not} survive sharding (each
    domain works LIFO on its own deque, evaluating nodes when popped),
    so the engine degrades toward plain parallel BaB — same verdict on
    complete runs, different path.  See docs/PARALLELISM.md. *)
