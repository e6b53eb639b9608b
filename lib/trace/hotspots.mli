(** Wall-time hotspot attribution: phase x tree-depth x layer.

    {!Phases} answers "where did the time go" per phase; this module
    lists the same {!Spans} cells by BaB-tree depth and warm-start
    layer so a regression can be localised ("DeepPoly at depth 7, cold
    starts").  Its rows are the unnested cells: AppVer calls, exact-leaf
    LP at the depth of the leaf it decided, and top-level attacks.
    Shares are of the capacity, the segment's wall times its domain
    count. *)

type row = {
  phase : string;
      (** ["appver.<name>"], ["lp.exact"] or ["attack.<name>"] *)
  depth : int;  (** BaB-tree depth; [-1] when the phase carries none *)
  layer : int;  (** warm-start layer ([0] = cold); [-1] = not applicable *)
  calls : int;
  seconds : float;
}

type t = {
  engine : string;
  wall : float;  (** the segment's wall ({!Summary.run}[.wall]) *)
  domains : int;  (** the segment's domain count; [0] when sequential *)
  overhead : float;  (** capacity not attributed to any row *)
  rows : row list;  (** sorted by [seconds], descending *)
}

val of_events : Abonn_obs.Event.envelope list -> t
(** Attribute one run's segment. *)

val to_string : ?limit:int -> t -> string
(** Ranked table with per-row and cumulative shares of the capacity;
    at most [limit] rows (default 30).  The header reads
    [wall=W s × N domains] when [N > 1]. *)

val to_flame : t -> string
(** Folded-stack output for flamegraph tooling, one line per row:
    [engine;phase;depth_D;layer_L <microseconds>] (the depth/layer
    frames are omitted when [-1]; weights are at least 1 µs so no
    nonzero row vanishes). *)
