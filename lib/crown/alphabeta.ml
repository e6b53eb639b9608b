module Rng = Abonn_util.Rng
module Obs = Abonn_obs.Obs
module Verdict = Abonn_spec.Verdict
module Branching = Abonn_bab.Branching
module Expand = Abonn_bab.Expand
module Attack = Abonn_attack.Attack

let verify ?(attack = Attack.best_effort) ?(attack_seed = 0)
    ?(appver = Abonn_prop.Appver.deeppoly) ?(heuristic = Branching.fsb) ?budget ?domains
    problem =
  (* One run from the attack on: its wall time covers the attack, and
     its metrics keep the best-first names. *)
  let k = Expand.create ~engine:"ab-crown" ~metrics:"bestfirst" ~appver ?budget problem in
  match attack.Attack.run (Rng.create attack_seed) problem with
  | Some x ->
    Obs.incr "crown.warmstart.hit";
    Expand.decided k (Verdict.Falsified x)
  | None ->
    Obs.incr "crown.warmstart.miss";
    Abonn_bab.Bestfirst.search ~heuristic ?domains k
