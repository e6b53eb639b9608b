(** Incremental analysis state shared down the BaB tree.

    A [t] snapshots what one warm-startable AppVer call certified for a
    node: the per-layer pre-activation bounds (split constraints folded
    in) and the per-row property lower bounds, together with the region
    and split sequence they were computed for.  A child node differs
    from its parent by one appended ReLU constraint, so every layer
    strictly below the split layer is provably identical — the child
    re-uses the parent's arrays verbatim (O(1) structural sharing) and
    re-propagates only from the split layer upward, intersecting each
    recomputed layer with the parent's bounds (monotone tightening:
    the child's feasible set is a subset of the parent's, so the
    parent's certified bounds remain sound for the child).

    Invariants relied on by [Deeppoly] and the engines:
    - [pre_bounds] and [row_lower] are immutable once a state is built;
      shared prefixes are aliased, never copied or mutated.
    - States are only valid for the network they were computed on;
      callers thread states along tree edges of a single run and never
      mix networks ([classify] checks region, gamma and shape, not
      weights).

    There is no global switch: an engine handed [{ v with Appver.warm =
    None }] bounds every node from scratch and builds no state (the
    [--no-bound-cache] path).

    See DESIGN.md "Incremental bound propagation". *)

type t = {
  appver : string;          (** producing verifier, e.g. ["deeppoly"] *)
  region_lower : float array;
  region_upper : float array;
  gamma : Abonn_spec.Split.gamma;
  pre_bounds : Bounds.t array;  (** every hidden layer, splits folded in *)
  row_lower : float array;      (** certified per-row property lower bounds *)
}

val make :
  appver:string ->
  problem:Abonn_spec.Problem.t ->
  gamma:Abonn_spec.Split.gamma ->
  pre_bounds:Bounds.t array ->
  row_lower:float array ->
  t

(** How a parent state can be reused for a node. *)
type reuse =
  | Prefix of int
      (** Same region, [gamma] extends the state's: layers below the
          given index are shared verbatim; re-propagation starts there. *)
  | Tighten
      (** Sub-region of the state's region with no split constraints on
          either side (input splitting): full re-propagation is forced,
          but every recomputed layer may be intersected with the
          parent's bounds. *)
  | Incompatible  (** fall back to a from-scratch analysis *)

val classify :
  t -> appver:string -> problem:Abonn_spec.Problem.t ->
  gamma:Abonn_spec.Split.gamma -> reuse
