(** A verification problem: network + specification (Φ, Ψ).

    The network is stored both in its original layered form (used by
    gradient-based attacks and for inspection) and compiled to affine–ReLU
    form (used by every verifier).  Compilation happens once here. *)

type t = private {
  name : string;
  network : Abonn_nn.Network.t;
  affine : Abonn_nn.Affine.t;
  region : Region.t;
  property : Property.t;
}

val create :
  ?name:string ->
  network:Abonn_nn.Network.t ->
  region:Region.t ->
  property:Property.t ->
  unit ->
  t
(** Raises [Invalid_argument] on dimension mismatches between network,
    region and property. *)

val of_affine :
  ?name:string ->
  affine:Abonn_nn.Affine.t ->
  region:Region.t ->
  property:Property.t ->
  unit ->
  t
(** Build directly from an affine–ReLU network (reconstructs an
    equivalent layered [network] for the attack modules). *)

val num_relus : t -> int
(** [K] of Def. 1. *)

val concrete_margin : t -> float array -> float
(** Margin of Ψ on [N(x)]. *)

val is_counterexample : t -> float array -> bool
(** [valid(x̂)] of the paper: x̂ lies in Φ and violates Ψ on the real
    network. *)

val worst_row_gradient : t -> float array -> float array
(** Input gradient at [x] of the property row [c·N(x) + d] with the
    least margin there (the first such row), from one trace of the
    layered network: its output picks the row, its values carry the
    backward pass.  Used by PGD and input-split branching. *)
