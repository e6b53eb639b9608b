(** Parallel BaB frontier: the work-stealing loop the engines run on
    [domains > 1] ([--domains 1] never enters this module).

    Frontier items are self-contained ({!Expand.item}: each carries its
    parent's incremental bound state), so any domain can expand any
    node, and the node step is the engines' shared {!Expand} one; this
    module owns the run's stop state — the atomic counterexample slot
    and the timeout flag.  See docs/PARALLELISM.md for the determinism
    contract and the memory-ordering argument.

    Verdict semantics mirror the sequential engines exactly:

    - a validated counterexample stops the pool and wins ([Falsified];
      first writer wins — with several concurrent counterexamples the
      {e witness} is scheduling-dependent, the verdict is not);
    - a drained pool with no counterexample is [Verified];
    - a worker observing an exhausted budget with work still pending
      raises the timeout flag and stops the pool ([Timeout]). *)

type t
(** Stop state of one parallel run. *)

val create : unit -> t

val note_cex : t -> 'a Abonn_par.Pool.ctx -> float array -> unit
(** Record a validated counterexample and stop the pool.  The first
    counterexample wins; later ones are dropped. *)

val note_timeout : t -> 'a Abonn_par.Pool.ctx -> unit
(** Record that the budget tripped with work pending, and stop the pool. *)

val verdict : t -> Abonn_spec.Verdict.t
(** The run's verdict per the rules above; call after [Pool.run]
    returns. *)

val run : Expand.t -> domains:int -> 'a Expand.item -> 'a Expand.visit -> Result.t
(** Drain the tree grown from one root item on a work-stealing pool:
    every item a worker takes is popped ({!Expand.popped}, with the
    worker's own deque length and a [nan] priority) and visited by its
    worker; the budget is re-checked before every item.  This is the
    parallel loop of [Bfs], [Bestfirst] (whose children are then
    evaluated when popped, not when pushed) and [Inputsplit].  The visit
    order is the pool's LIFO + steal order: neither BFS's FIFO nor
    best-first's global priority order survives sharding, which changes
    the {e path} through the tree but not the verdict
    (docs/PARALLELISM.md §3). *)
