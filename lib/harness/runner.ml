module Budget = Abonn_util.Budget
module Obs = Abonn_obs.Obs
module Ev = Abonn_obs.Event
module Result = Abonn_bab.Result

type engine = {
  name : string;
  run : budget:Budget.t -> Abonn_spec.Problem.t -> Result.t;
}

let bab_baseline =
  { name = "bab-baseline"; run = (fun ~budget problem -> Abonn_bab.Bfs.verify ~budget problem) }

let alphabeta_crown =
  { name = "ab-crown";
    run = (fun ~budget problem -> Abonn_crown.Alphabeta.verify ~budget problem) }

let abonn_named name config =
  { name;
    run = (fun ~budget problem -> Abonn_core.Abonn.verify ~config ~budget problem) }

let abonn ?(config = Abonn_core.Config.default) () = abonn_named "abonn" config

let default_engines = [ bab_baseline; alphabeta_crown; abonn () ]

(* The uninstrumented analysis: timing it leaves no event or counter in
   a traced sweep, between whose run brackets it runs. *)
let per_call_cost problem =
  let times =
    Array.init 3 (fun _ ->
        let t0 = Unix.gettimeofday () in
        ignore (Abonn_prop.Deeppoly.analyse_warm problem []);
        Unix.gettimeofday () -. t0)
  in
  Abonn_util.Stats.median times

type record = {
  instance : Abonn_data.Instances.t;
  engine : string;
  result : Result.t;
  model_time : float;
}

(* The per-call cost only depends on the network, so measure it once per
   model family. *)
let cost_cache : (string, float) Hashtbl.t = Hashtbl.create 8

let cached_cost instance =
  let model = instance.Abonn_data.Instances.model in
  match Hashtbl.find_opt cost_cache model with
  | Some c -> c
  | None ->
    let c = per_call_cost instance.Abonn_data.Instances.problem in
    Hashtbl.replace cost_cache model c;
    c

let run_instance ?(calls = 1000) ?seconds engine instance =
  let budget = Budget.combine ~calls ?seconds () in
  let problem = instance.Abonn_data.Instances.problem in
  let id = instance.Abonn_data.Instances.id in
  if Obs.tracing () then
    Obs.emit (Ev.Run_started { engine = engine.name; instance = id });
  let result = Obs.time ("engine." ^ engine.name) (fun () -> engine.run ~budget problem) in
  if Obs.tracing () then begin
    let stats = result.Result.stats in
    Obs.emit
      (Ev.Run_finished
         { engine = engine.name; instance = id;
           verdict = Abonn_spec.Verdict.to_string result.Result.verdict;
           calls = stats.Result.appver_calls; nodes = stats.Result.nodes;
           max_depth = stats.Result.max_depth; wall = stats.Result.wall_time })
  end;
  { instance;
    engine = engine.name;
    result;
    model_time = cached_cost instance *. float_of_int result.Result.stats.Result.appver_calls }
