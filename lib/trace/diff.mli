(** Compare two traces of the same instance (e.g. ABONN vs the
    breadth-first baseline) — the paper's RQ1 comparison as one command.

    The diff reports, per side: the reconstructed run statistics
    ({!Summary.run}), the number of node visits needed to reach the
    verdict, and the phase breakdown ({!Phases.t}); plus the divergence
    point of the two visit sequences — the first index at which the two
    engines visit different sub-problems.  Visits and their comparison
    are the run model's ({!Summary.common_prefix}): by gamma when both
    visits carry one (ABONN vs ABONN), by depth otherwise (the baselines
    only record depths). *)

type divergence = {
  index : int;  (** 0-based position in the visit sequences *)
  depth_a : int;
  depth_b : int;
  gamma_a : string option;
  gamma_b : string option;
}

type t = {
  run_a : Summary.run;
  run_b : Summary.run;
  visits_a : int;  (** node visits up to (and incl.) the verdict *)
  visits_b : int;
  divergence : divergence option;
      (** [None] when one visit sequence is a prefix of the other *)
  shared_prefix : int;  (** leading visits identical on both sides *)
  phases_a : Phases.t;
  phases_b : Phases.t;
}

val diff :
  Abonn_obs.Event.envelope list -> Abonn_obs.Event.envelope list -> t
(** [diff a b] compares one run per side (the first run segment of each
    trace). *)

val to_string : ?label_a:string -> ?label_b:string -> t -> string
(** Side-by-side table: verdict, calls, nodes, depth, wall, visits to
    verdict, per-phase seconds with deltas, and the divergence point. *)
