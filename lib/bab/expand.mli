(** The BaB node step every engine shares.

    In generic branch-and-bound (Bunel et al., arXiv 1909.06588) an
    engine is one expand step under a frontier policy.  This module is
    that step: one warm-started AppVer call on a node, validation of an
    unproved node's candidate counterexample, then either the chooser's
    split or an exact decision of a fully-stabilised leaf — together
    with the run's bookkeeping (AppVer budget, node and depth counts,
    certificate leaves, resource samples, trace events and metrics).
    The engines keep only their frontier: a FIFO queue ([Bfs]), a heap
    keyed on the certified bound ([Bestfirst]), the UCB1 tree
    ([Abonn_core.Abonn]) or the work-stealing pool ([Parfrontier]).

    A run's state is safe to share between the domains of a parallel
    run: node and depth counts and certificate leaves are atomic, and
    the resource sampler is ticked only by the calling domain. *)

type t
(** One engine run. *)

type node = {
  gamma : Abonn_spec.Split.gamma;
  depth : int;
  outcome : Abonn_prop.Outcome.t;
  state : Abonn_prop.Incremental.t option;
      (** this node's own incremental bound state, warm-starting its
          children *)
}
(** An evaluated node. *)

type 'a item = 'a * int * Abonn_prop.Incremental.t option
(** An unevaluated frontier item: what to bound (a split sequence, or
    input split's box), its depth, and its parent's incremental state
    so that any domain can evaluate it warm. *)

type 'a visit =
  worker:int -> push:('a item -> unit) -> 'a item -> float array option
(** Evaluate a popped item and [push] its children; return a validated
    counterexample, which ends the run.  [worker] is the evaluating
    domain's index ([0] in sequential runs), for per-domain scratch
    state such as choosers. *)

val create :
  ?certify:bool ->
  engine:string ->
  metrics:string ->
  appver:Abonn_prop.Appver.t ->
  ?budget:Abonn_util.Budget.t ->
  Abonn_spec.Problem.t ->
  t
(** Start a run of the engine named [engine] in traces; its metrics are
    named [metrics.pop], [metrics.depth] and [metrics.exact].  The
    budget defaults to unlimited.  The root counts as the run's first
    node, at depth 0.  With [certify] every discharged leaf is kept for
    {!certificate}. *)

val domains : int option -> int
(** Resolve an engine's [?domains] argument: at least 1, defaulting to
    [Abonn_par.Pool.default_domains ()]. *)

val problem : t -> Abonn_spec.Problem.t
val budget : t -> Abonn_util.Budget.t
val engine : t -> string

(** {1 The node step} *)

val evaluate :
  t ->
  ?problem:Abonn_spec.Problem.t ->
  ?state:Abonn_prop.Incremental.t ->
  Abonn_spec.Split.gamma ->
  depth:int ->
  node * [ `Verified | `Open | `Falsified of float array ]
(** One AppVer call on Γ, warm-started from [state] and counted against
    the budget.  A proved node is [`Verified] and becomes a certificate
    leaf; an unproved node whose candidate is a real counterexample of
    the run's problem is [`Falsified]; otherwise it is [`Open].
    [problem] overrides the problem the AppVer bounds (input split's
    sub-box); candidates are always validated against the run's. *)

val child :
  t -> node -> Abonn_spec.Split.gamma ->
  node * [ `Verified | `Open | `Falsified of float array ]
(** {!evaluate} a child of an evaluated node, warm from the node's
    state, counting it as a new node one level deeper. *)

val branch :
  t ->
  Branching.chooser ->
  node ->
  [ `Split of Abonn_spec.Split.gamma * Abonn_spec.Split.gamma
  | `Verified
  | `Falsified of float array ]
(** Split an open node on the chooser's ReLU, emitting its
    [branch_decision], into its active and inactive children.  A node
    with no ReLU left to split is a fully-stabilised leaf: it is decided
    exactly under its own bounds (one budget call, one [exact_leaf]
    event) and becomes a certificate leaf when verified. *)

val visit : t -> Branching.chooser array -> Abonn_spec.Split.gamma visit
(** {!evaluate} a popped item, then {!branch} it when open, pushing both
    children as items warm from the node's state ({!push_children}).
    [choosers] are indexed by worker. *)

val push_children :
  t -> push:('a item -> unit) -> depth:int -> Abonn_prop.Incremental.t option ->
  'a -> 'a -> unit
(** Push two unevaluated children of a node at [depth], counting both
    as new nodes. *)

val unresolved : t -> unit
(** Note a node the engine can neither prove, falsify nor split (input
    split's point-sized boxes): a run that would otherwise verify
    reports [Timeout]. *)

(** {1 Frontier bookkeeping} *)

val popped :
  t -> ?priority:float -> ?runner_up:(unit -> float) -> depth:int ->
  frontier:int -> unit -> unit
(** A frontier policy took a node at [depth], leaving [frontier] open
    nodes: the [pop] counter, the [depth] histogram, a [frontier_pop]
    event ([priority] defaults to [nan]) and a resource tick.  With
    [runner_up] (the next-best priority), introspection also gets the
    [frontier_decision] that explains the pop. *)

val tick : t -> open_nodes:int -> unit
(** A resource tick (see [Abonn_obs.Resource.tick]); a no-op on every
    domain but the calling one. *)

val finish : t -> open_nodes:int -> Abonn_spec.Verdict.t -> Result.t
(** End the run: a final resource sample, the [verdict_reached] event
    and the engine's [Result]. *)

val certificate : t -> Result.t -> Certificate.t option
(** The discharged leaves of a [Verified] run created with [certify]. *)
