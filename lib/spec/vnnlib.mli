(** VNNLIB property files — the SMT-LIB2 subset used by VNN-COMP.

    A VNNLIB file declares input variables [X_0 … X_{n−1}] and output
    variables [Y_0 … Y_{m−1}] and asserts the {e violation} condition:
    the property is verified iff no input in the asserted box can
    produce an output satisfying the asserted output constraints.

    The supported grammar (docs/FORMATS.md):

    {v
    (declare-const X_i Real)          input/output declarations
    (declare-const Y_j Real)
    (assert (<= X_i c))               per-dimension input bounds
    (assert (>= X_i c))               (both bounds required per dim)
    (assert (or (and lit …) …))       output constraints: a DNF of
    (assert (and lit …))              linear literals over the Y_j
    (assert lit)
    v}

    where a literal is [(<= t u)] or [(>= t u)] and the terms are
    linear: constants, variables, [( * c t)], [(+ t …)], [(- t …)].
    Multiple top-level output asserts are conjoined and distributed
    into disjunctive normal form (at most {!max_disjuncts} disjuncts).
    A comparison mixing [X] and [Y] variables is a positioned error, and
    so is a declared index of [n] or more when [n] distinct [X] (or [Y])
    variables are declared: the indices must run from 0 without a gap.

    {b DNF-splitting semantics.}  The violation condition is
    [∨_j (∧_i literal_ij)].  {!problems} lowers each disjunct to one
    self-contained {!Problem.t} — one branch-and-bound run per
    disjunct — and {!join_verdicts} recombines: the property is
    [Verified] iff {e every} disjunct is unreachable, [Falsified] as
    soon as any run finds a counterexample (the witness is valid for
    the original network), and [Timeout] otherwise.  A multi-literal
    disjunct [∧_i (g_i ≤ 0)] is encoded {e exactly} by appending a
    ReLU max-gadget computing [t = max_i g_i] to the network and
    asserting [t > 0]: the gadget run is falsified iff all literals
    hold simultaneously, so no over-approximation is introduced.

    Malformed input raises {!Abonn_util.Parse_error.Error} with the
    1-based line/column and offending token. *)

type linterm = {
  coeffs : float array;  (** length [num_outputs] *)
  offset : float;
}
(** One violation literal [coeffs · y + offset ≤ 0]. *)

type t = {
  num_inputs : int;
  num_outputs : int;
  lower : float array;  (** length [num_inputs] *)
  upper : float array;
  disjuncts : linterm list list;
      (** violation DNF: [∨_j (∧_i literal_ij)]; never empty, and no
          disjunct is empty *)
}

val max_disjuncts : int
(** Cap on the DNF size produced by distributing conjoined [or]s (64);
    exceeding it is a parse error. *)

val parse : ?source:string -> ?network:Abonn_nn.Network.t -> string -> t
(** Parse VNNLIB text.  [source] (default ["<string>"]) labels error
    positions.  With [network], the declared [X] and [Y] variables must
    match its input and output widths: the first declaration of an index
    the network does not have is a positioned error, and so is a spec
    that declares fewer.  Raises {!Abonn_util.Parse_error.Error} on
    malformed or unsupported input. *)

val load : ?network:Abonn_nn.Network.t -> string -> t
(** [load path] parses the file at [path] (checked against [network] as
    {!parse} does); errors are positioned with [path] as the source.
    Raises [Sys_error] when the file is missing. *)

val to_string : t -> string
(** Deterministic pretty-printer.  Floats are rendered with [%.17g] so
    [parse (to_string s)] reproduces [s] exactly. *)

val save : t -> string -> unit

val problems : ?name:string -> network:Abonn_nn.Network.t -> t -> Problem.t list
(** One problem per disjunct, in order (see the DNF-splitting note
    above).  Single-literal disjuncts negate the literal directly;
    multi-literal disjuncts append the exact ReLU max-gadget.  Raises
    [Invalid_argument] when the spec's dimensions disagree with the
    network; {!parse} and {!load} given the network report that at the
    offending declaration instead. *)

val join_verdicts : Verdict.t list -> Verdict.t
(** [Falsified] if any disjunct is (first wins, witness preserved),
    else [Verified] if all are, else [Timeout]. *)

val of_problem : Problem.t -> t
(** Encode a problem's region and property as a VNNLIB spec: each
    property row [c·y + d > 0] becomes its own single-literal violation
    disjunct [c·y + d ≤ 0] (¬Ψ in DNF).  [problems] on the result
    yields one run per row; {!join_verdicts} restores the original
    semantics. *)
