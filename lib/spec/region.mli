(** Input regions Φ: axis-aligned boxes.

    The paper's specifications are L∞ balls around a reference input,
    intersected with the valid pixel range — which is exactly a box. *)

type t = private {
  lower : float array;
  upper : float array;
}

val create : lower:float array -> upper:float array -> t
(** Raises [Invalid_argument] if lengths differ, some bound is infinite
    or [nan], or some [lower > upper]. *)

val linf_ball : ?clip:(float * float) -> center:float array -> eps:float -> unit -> t
(** [linf_ball ~center ~eps ()] is the ball
    [{x : ‖x − center‖∞ ≤ eps}], optionally intersected with
    [\[fst clip, snd clip\]] per coordinate (e.g. [(0., 1.)] for pixels).
    Raises [Invalid_argument] like {!create}, or if [eps < 0]. *)

val dim : t -> int
val center : t -> float array
val radius : t -> float array
(** Per-coordinate half-widths. *)

val contains : t -> float array -> bool
(** Membership with a tiny tolerance (1e-9) for round-off. *)

val clamp : t -> float array -> float array
(** Project a point onto the box. *)

val sample : Abonn_util.Rng.t -> t -> float array
(** Uniform sample. *)

val corner : t -> (int -> bool) -> float array
(** [corner t pick] selects [upper.(i)] where [pick i], else [lower.(i)]. *)

val volume_log : t -> float
(** Sum of [log] widths (−∞ if any width is 0); used only for reporting. *)
