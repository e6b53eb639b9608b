(** Uniform engine interface and instance runner.

    Engines wrap the repository's verifiers behind one signature so the
    experiment drivers can sweep them.  Per-instance "time" is reported
    two ways (DESIGN.md §4):

    - [wall_time]: real seconds (noisy, machine-dependent);
    - [model_time]: [appver_calls × per-call cost of the instance's
      network], the deterministic cost model used in the reproduced
      tables.  The per-call cost is measured once per network by timing
      a handful of root AppVer calls. *)

type engine = {
  name : string;
  run : budget:Abonn_util.Budget.t -> Abonn_spec.Problem.t -> Abonn_bab.Result.t;
}

val bab_baseline : engine
(** Breadth-first BaB ([Abonn_bab.Bfs]) — the paper's BaB-baseline. *)

val alphabeta_crown : engine
(** The αβ-CROWN-style baseline ([Abonn_crown.Alphabeta]). *)

val abonn : ?config:Abonn_core.Config.t -> unit -> engine
(** ABONN with the given configuration (default λ=0.5, c=0.2). *)

val abonn_named : string -> Abonn_core.Config.t -> engine
(** ABONN under an explicit display name (for sweeps/ablations). *)

val default_engines : engine list
(** The RQ1 line-up: [bab_baseline; alphabeta_crown; abonn ()]. *)

val per_call_cost : Abonn_spec.Problem.t -> float
(** Median wall-clock seconds of a root DeepPoly call on this problem
    (3 timed runs of the uninstrumented [Deeppoly.analyse_warm], so a
    traced sweep gains no event and no counter). *)

type record = {
  instance : Abonn_data.Instances.t;
  engine : string;
  result : Abonn_bab.Result.t;
  model_time : float;
}

val run_instance :
  ?calls:int -> ?seconds:float -> engine -> Abonn_data.Instances.t -> record
(** Run one engine on one instance under a fresh budget (defaults: 1000
    calls, no wall-clock limit). *)
