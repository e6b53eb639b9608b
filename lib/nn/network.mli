(** Feed-forward networks: a validated sequence of layers.

    Networks support concrete evaluation, full activation traces (used by
    the trainer, tests and the ReLU-stability analysis) and the input
    gradient (used by the adversarial attacks and the first-order
    candidates).  Parameter gradients live in {!Trainer}. *)

type t = private {
  layers : Layer.t array;
  input_dim : int;
  output_dim : int;
}

val create : Layer.t list -> t
(** Validates that consecutive layer dimensions match.  Raises
    [Invalid_argument] on an empty list or a dimension mismatch. *)

val layers : t -> Layer.t list
val input_dim : t -> int
val output_dim : t -> int

val forward : t -> float array -> float array
(** [forward net x] evaluates the network on a concrete input. *)

val trace : t -> float array -> float array array
(** [trace net x] returns the value entering each layer plus the final
    output: [trace net x] has [Array.length net.layers + 1] entries, with
    entry [0 = x] and the last entry [= forward net x]. *)

val num_params : t -> int

val num_relus : t -> int
(** Total number of ReLU units (the [K] of Def. 1). *)

val num_neurons : t -> int
(** Total width of all hidden + output layers (paper Table I counts). *)

val input_gradient : t -> float array -> d_out:float array -> float array
(** Gradient of [d_out · output] w.r.t. the input (for FGSM/PGD): one
    trace, then {!trace_gradient}.  No parameter gradient is formed. *)

val trace_gradient : t -> float array array -> d_out:float array -> float array
(** [trace_gradient net (trace net x) ~d_out] is [input_gradient net x
    ~d_out]: {!Layer.input_gradient} from the last layer to the first
    over an existing trace. *)

val predict : t -> float array -> int
(** Argmax output label. *)
