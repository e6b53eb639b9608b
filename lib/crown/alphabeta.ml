module Budget = Abonn_util.Budget
module Rng = Abonn_util.Rng
module Obs = Abonn_obs.Obs
module Ev = Abonn_obs.Event
module Verdict = Abonn_spec.Verdict
module Result = Abonn_bab.Result
module Branching = Abonn_bab.Branching
module Attack = Abonn_attack.Attack

let verify ?(attack = Attack.best_effort) ?(attack_seed = 0)
    ?(appver = Abonn_prop.Appver.deeppoly) ?(heuristic = Branching.fsb) ?budget ?domains
    problem =
  let budget = match budget with Some b -> b | None -> Budget.unlimited () in
  let started = Unix.gettimeofday () in
  let rng = Rng.create attack_seed in
  match attack.Attack.run rng problem with
  | Some x ->
    let wall_time = Unix.gettimeofday () -. started in
    if Obs.active () then begin
      Obs.incr "crown.warmstart.hit";
      if Obs.tracing () then
        Obs.emit
          (Ev.Verdict_reached
             { engine = "ab-crown"; verdict = Verdict.to_string (Verdict.Falsified x);
               elapsed = wall_time })
    end;
    Result.make ~verdict:(Verdict.Falsified x) ~appver_calls:(Budget.calls_used budget)
      ~nodes:0 ~max_depth:0 ~wall_time
  | None ->
    Obs.incr "crown.warmstart.miss";
    let result = Abonn_bab.Bestfirst.verify ~appver ~heuristic ~budget ?domains problem in
    let wall_time = Unix.gettimeofday () -. started in
    if Obs.tracing () then
      Obs.emit
        (Ev.Verdict_reached
           { engine = "ab-crown"; verdict = Verdict.to_string result.Result.verdict;
             elapsed = wall_time });
    { result with
      Result.stats = { result.Result.stats with Result.wall_time } }
