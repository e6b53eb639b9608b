(** Per-phase wall-time attribution for one run segment.

    Renders {!Spans} cells into the phases the paper reasons about —
    approximate verification (AppVer), exact LP solving, adversarial
    attacks — and charges whatever is left of the capacity (the
    segment's wall from {!Summary.of_events} times its domain count) to
    search overhead (selection, branching, queue/tree maintenance,
    instrumentation).

    Nesting follows {!Spans}: LP solves inside an AppVer call are
    already part of the AppVer phase and are not charged again;
    attacks nested in another attack (a [best-effort] portfolio's
    components) are listed under their own names but left out of the
    attack total. *)

type span = { calls : int; total : float }

type t = {
  wall : float;  (** the segment's wall ({!Summary.run}[.wall]) *)
  domains : int;  (** the segment's domain count; [0] when sequential *)
  appver : (string * span) list;  (** per AppVer name, sorted *)
  appver_total : span;
  lp : span;  (** every [lp_solved] event *)
  lp_in_appver : float;  (** seconds of LP solves nested in AppVer calls *)
  attack : (string * span) list;
      (** per attack name, sorted, nested attacks included *)
  attack_total : span;  (** top-level attack time (nested removed) *)
  overhead : float;
      (** capacity − appver − exact LP − top-level attacks, clamped ≥ 0 *)
}

val of_events : Abonn_obs.Event.envelope list -> t

val to_string : t -> string
(** Aligned phase table with absolute seconds and percentage of the
    capacity; the header reads [wall W s × N domains] when [N > 1]. *)
