(** The one event→span model behind [abonn_trace phases], [hotspots]
    and [watch] ({!Phases}, {!Hotspots} and {!Monitor} render its
    cells).

    A span event ([bound_computed], [lp_solved], [attack_tried]) is
    emitted when its span ends and covers [[t − elapsed, t]], so a
    child reaches the stream before its parent.  Fed one envelope at a
    time, the model applies every rule once:

    - Nesting happens only within one envelope [domain]; an untagged
      envelope counts as domain 0.  An [lp_solved] that ends inside a
      later [bound_computed] window is nested in that AppVer call
      (phase ["lp.appver"]).  An [attack_tried] that ends inside a later
      [attack_tried] window is nested in that attack.
    - An unnested [lp_solved] is exact-leaf LP (["lp.exact"]).  Its
      depth is that of the same domain's next [exact_leaf], else [-1].
    - A [bound_computed] (["appver.<name>"]) takes its layer from the
      same domain's next event, if that is the matching [bound_reuse];
      otherwise its layer is [0] (cold).
    - [verdict_reached] and [run_finished] end a run: every span still
      open settles there, unnested.

    Each span settles once into a cell keyed by phase, depth, layer and
    nesting, so memory is the distinct keys plus the spans still open:
    a live [watch] does not grow with the run.

    Shares are of the {e capacity}: the wall {!Summary.of_events}
    computes for the segment (a live view uses the last event time),
    times the segment's domain count, at least 1. *)

type key = {
  phase : string;  (** ["appver.<name>"], ["lp.exact"], ["lp.appver"] or ["attack.<name>"] *)
  depth : int;  (** BaB-tree depth; [-1] when the phase carries none *)
  layer : int;  (** warm-start layer ([0] = cold); [-1] = not applicable *)
  nested : bool;  (** inside another span, whose time already covers it *)
}

type cell = { key : key; calls : int; seconds : float }

type t
(** A model being fed. *)

val create : unit -> t

val feed : t -> Abonn_obs.Event.envelope -> unit

val cells : t -> cell list
(** Every cell, sorted by key, with the spans still open settled as if
    the stream ended here (the model itself is left as it was). *)

val of_events : Abonn_obs.Event.envelope list -> cell list
(** Feed every envelope, then {!cells}. *)

val total : (key -> bool) -> cell list -> int * float
(** Calls and seconds of the cells whose key passes. *)

val capacity : wall:float -> domains:int -> float
(** [wall × max 1 domains]: the seconds the run's domains had. *)

val domains_suffix : int -> string
(** [" × N domains"] when [N > 1], else [""]: printed after a wall so
    sequential output stays what it was. *)
