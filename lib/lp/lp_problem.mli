(** General-form linear programs over bounded variables.

    A thin modelling layer over {!Boxlp}: variables with bounds
    (at least one of them finite), ≤ / ≥ / = constraints over repeated
    terms, and a minimisation objective with a constant.  [solve] hands
    the model to the bounded-variable simplex as is and maps the
    solution back.  [Exact]'s leaf LPs are built here; the LP verifier
    builds its rows for {!Boxlp} directly. *)

type t
type var

type sense = Le | Ge | Eq

type outcome =
  | Optimal of { objective : float; values : var -> float }
  | Infeasible
  | Unbounded
  | Pivot_limit
      (** pivot budget exhausted before convergence — inconclusive;
          callers must treat it as "no information", never a verdict *)

val create : unit -> t

val add_var : ?lo:float -> ?hi:float -> t -> var
(** Fresh variable with bounds [\[lo, hi\]] (defaults: [-∞] and [+∞],
    so at least one must be given).  Raises [Invalid_argument] if
    [lo > hi], a bound is [nan], or both bounds are infinite. *)

val add_constraint : t -> (float * var) list -> sense -> float -> unit
(** [add_constraint t terms sense rhs] adds [Σ coef·x  sense  rhs].
    Repeated variables in [terms] are summed. *)

val set_objective : ?constant:float -> t -> (float * var) list -> unit
(** Minimise [Σ coef·x + constant].  Defaults to the zero objective
    (pure feasibility). *)

val solve : ?max_iters:int -> t -> outcome
(** Solve with {!Boxlp.solve}.  The builder may be reused (and further
    extended) after solving.  Every solve reports the [lp.solves] and
    [lp.solve.<status>] counters, the [lp.solve] span and one
    [lp_solved] trace event; this costs one branch while observability
    is off. *)
