(** Verification certificates: checkable evidence for a [Verified] verdict.

    A BaB run that proves a property implicitly covers the input region
    with a finite set of leaves, each discharged by one AppVer call (or
    an exact LP).  This module makes that object explicit — the list of
    discharged leaves with the split sequence Γ that identifies each —
    and provides an {e independent checker} that re-bounds every leaf
    and verifies the leaves cover the split space.

    The checker replays a leaf the way the engines bound it: walking
    its split prefix from the root with warm-started AppVer calls
    ([Appver.run_warm]), so each node's bounds are tightened by its
    ancestors' (DESIGN.md §9).  A leaf proved only under those
    parent-tightened bounds — e.g. one that is vacuous once its
    ancestors' bounds are intersected in — therefore replays as proved.
    The checker trusts only the bound propagation (which the test suite
    validates against sampling separately) and the exact leaf LP; it
    does not trust the search that produced the certificate.  This
    mirrors the proof-production facilities of modern verifiers and
    makes "Verified" auditable.

    Certificates are produced by [Bfs.verify_with_certificate]; any
    engine could emit one, the BFS engine is the natural reference. *)

type leaf = {
  gamma : Abonn_spec.Split.gamma;
  phat : float;            (** certified bound recorded at discharge *)
  by_exact : bool;         (** discharged by the exact leaf LP *)
}

type t = {
  leaves : leaf list;
  appver_name : string;
}

type check_error =
  | Leaf_not_proved of Abonn_spec.Split.gamma * float
      (** replay returned this non-positive bound *)
  | Coverage_gap of Abonn_spec.Split.gamma
      (** a region of the split space is not covered by any leaf *)
  | Duplicate_or_overlap of Abonn_spec.Split.gamma

val check :
  ?appver:Abonn_prop.Appver.t ->
  Abonn_spec.Problem.t ->
  t ->
  (unit, check_error) result
(** Replay every leaf and verify the leaves form a partition of the
    split space (an exact binary-tree cover: for every internal node,
    both phases of the split ReLU are covered).  Prefixes shared by
    several leaves are bounded once.  A [by_exact] leaf the replayed
    bound does not prove is decided by [Exact.resolve] under the
    replayed bounds; a leaf that cannot be resolved there (bounds not
    fully stable) is reported as [Leaf_not_proved], so [check] never
    raises. *)

val num_leaves : t -> int

val pp_error : Format.formatter -> check_error -> unit
