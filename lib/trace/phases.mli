(** Per-phase wall-time attribution for one run.

    Sums the [elapsed] payloads of the span-bearing events into the
    phases the paper reasons about — approximate verification (AppVer),
    exact LP solving, adversarial attacks — and charges whatever is left
    of the engine wall time to search overhead (selection, branching,
    queue/tree maintenance, instrumentation).

    Two kinds of nesting are untangled using event timestamps (a
    span-bearing event is emitted at the {e end} of its span, so its
    window is [[t - elapsed, t]]):

    - LP solves made {e inside} an AppVer computation (cold [lp] AppVer
      calls in older traces; exact-leaf resolutions are outside) are
      already part of the AppVer phase and are not double-charged;
    - [best-effort] attack events include their sub-attacks; nested
      attack events are excluded from the attack phase total. *)

type span = { calls : int; total : float }

type t = {
  wall : float;  (** engine wall seconds (verdict_reached, else t-span) *)
  appver : (string * span) list;  (** per AppVer name, sorted *)
  appver_total : span;
  lp : span;  (** every [lp_solved] event *)
  lp_in_appver : float;  (** seconds of LP solves inside AppVer windows *)
  attack : (string * span) list;  (** per attack name, sorted *)
  attack_total : span;  (** top-level attack time (nested removed) *)
  overhead : float;  (** wall − appver − exact LP − attacks, clamped ≥ 0 *)
}

val of_events : Abonn_obs.Event.envelope list -> t

val to_string : t -> string
(** Aligned phase table with absolute seconds and percentage of wall. *)
