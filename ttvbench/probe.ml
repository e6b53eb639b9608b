(* Per-layer timers taken from outside the verifier.

   Each wrapper below has the exact type of the record an engine already
   takes as a parameter ([?appver], [?heuristic], [Config.appver],
   [?attack]), forwards every call unchanged and only reads the clock
   around it, so a wrapped solve does the same work as an unwrapped one
   (the tests check verdict, calls and nodes for bit identity).

   The αβ-CROWN baseline takes no AppVer parameter, so its DeepPoly calls
   are read from the [bound_computed] / [bound_reuse] events that
   [Deeppoly.run_warm] already emits ({!on_event}). *)

module Appver = Abonn_prop.Appver
module Outcome = Abonn_prop.Outcome
module Branching = Abonn_bab.Branching
module Attack = Abonn_attack.Attack
module Event = Abonn_obs.Event

type t = {
  mutable prop_calls : int;
  mutable prop_busy : float;
  mutable prop_warm : int;  (** calls that received a parent state *)
  mutable prop_proved : int;  (** calls whose bound proved their node *)
  mutable branch_prepare : float;
  mutable branch_calls : int;
  mutable branch_busy : float;
  mutable attack_calls : int;
  mutable attack_busy : float;
  mutable attack_hits : int;
}

let create () =
  { prop_calls = 0; prop_busy = 0.0; prop_warm = 0; prop_proved = 0;
    branch_prepare = 0.0; branch_calls = 0; branch_busy = 0.0;
    attack_calls = 0; attack_busy = 0.0; attack_hits = 0 }

let now = Unix.gettimeofday

let record_prop p ~busy ~warm ~proved =
  p.prop_calls <- p.prop_calls + 1;
  p.prop_busy <- p.prop_busy +. busy;
  if warm then p.prop_warm <- p.prop_warm + 1;
  if proved then p.prop_proved <- p.prop_proved + 1

let appver p (v : Appver.t) : Appver.t =
  let run problem gamma =
    let t0 = now () in
    let outcome = v.run problem gamma in
    record_prop p ~busy:(now () -. t0) ~warm:false ~proved:(Outcome.proved outcome);
    outcome
  in
  let wrap_warm (w : Appver.warm) : Appver.warm =
   fun ?state problem gamma ->
    let t0 = now () in
    let ((outcome, _) as r) = w ?state problem gamma in
    record_prop p ~busy:(now () -. t0) ~warm:(Option.is_some state)
      ~proved:(Outcome.proved outcome);
    r
  in
  { v with run; warm = Option.map wrap_warm v.warm }

let heuristic p (h : Branching.t) : Branching.t =
  let prepare problem =
    let t0 = now () in
    let choose = h.prepare problem in
    p.branch_prepare <- p.branch_prepare +. (now () -. t0);
    fun ~gamma ~pre_bounds ->
      let t0 = now () in
      let choice = choose ~gamma ~pre_bounds in
      p.branch_calls <- p.branch_calls + 1;
      p.branch_busy <- p.branch_busy +. (now () -. t0);
      choice
  in
  { h with prepare }

let attack p (a : Attack.t) : Attack.t =
  let run rng problem =
    let t0 = now () in
    let hit = a.run rng problem in
    p.attack_calls <- p.attack_calls + 1;
    p.attack_busy <- p.attack_busy +. (now () -. t0);
    if Option.is_some hit then p.attack_hits <- p.attack_hits + 1;
    hit
  in
  { a with run }

(* DeepPoly calls seen through the trace stream, for the engine that
   gives no AppVer parameter to wrap.  [bound_reuse] follows the
   [bound_computed] of a call that started from a parent state. *)
let on_event p (env : Event.envelope) =
  match env.event with
  | Event.Bound_computed { appver = "deeppoly"; phat; elapsed; _ } ->
    record_prop p ~busy:elapsed ~warm:false ~proved:(phat > 0.0)
  | Event.Bound_reuse { appver = "deeppoly"; _ } -> p.prop_warm <- p.prop_warm + 1
  | _ -> ()

(* Time spent in the layers this probe times, inside one solve. *)
let busy p = p.prop_busy +. p.branch_prepare +. p.branch_busy +. p.attack_busy

let add ~into p =
  into.prop_calls <- into.prop_calls + p.prop_calls;
  into.prop_busy <- into.prop_busy +. p.prop_busy;
  into.prop_warm <- into.prop_warm + p.prop_warm;
  into.prop_proved <- into.prop_proved + p.prop_proved;
  into.branch_prepare <- into.branch_prepare +. p.branch_prepare;
  into.branch_calls <- into.branch_calls + p.branch_calls;
  into.branch_busy <- into.branch_busy +. p.branch_busy;
  into.attack_calls <- into.attack_calls + p.attack_calls;
  into.attack_busy <- into.attack_busy +. p.attack_busy;
  into.attack_hits <- into.attack_hits + p.attack_hits
