(** Result of one approximate-verifier ([AppVer]) invocation (§III).

    [phat] is the certified lower bound of the property margin over the
    (split-constrained) sub-problem: positive means *proved*; negative
    means the relaxation admits a violation, in which case [candidate]
    holds the input the relaxation considers most violating (to be
    validated concretely).  [infeasible] sub-problems — where split
    constraints contradict the certified bounds — are vacuously proved
    and report [phat = +∞]. *)

type t = {
  phat : float;
  candidate : float array option;
  pre_bounds : Bounds.t array;
      (** bounds of every hidden pre-activation layer, with split
          constraints folded in; empty when infeasibility was detected
          before all layers were bounded *)
  infeasible : bool;
  row_lower : float array;
      (** certified lower bound per property row; [phat] is their min *)
}

val proved : t -> bool
(** [phat > 0] (infeasible included). *)

val make :
  phat:float ->
  ?candidate:float array ->
  ?pre_bounds:Bounds.t array ->
  ?infeasible:bool ->
  ?row_lower:float array ->
  unit ->
  t

val of_rows :
  ?candidate:(int -> float array) -> pre_bounds:Bounds.t array -> float array -> t
(** [of_rows ?candidate ~pre_bounds row_lower]: the outcome of a
    feasible sub-problem whose certified per-row lower bounds are
    [row_lower].  [phat] is their minimum; unless it is positive,
    [candidate] (when given) is called on the worst row, the first
    minimal one, for the candidate counterexample. *)

val vacuous : pre_bounds:Bounds.t array -> t
(** Outcome of an infeasible sub-problem. *)
