module Budget = Abonn_util.Budget
module Obs = Abonn_obs.Obs
module Ev = Abonn_obs.Event
module Introspect = Abonn_obs.Introspect
module Resource = Abonn_obs.Resource
module Split = Abonn_spec.Split
module Verdict = Abonn_spec.Verdict
module Problem = Abonn_spec.Problem
module Outcome = Abonn_prop.Outcome
module Appver = Abonn_prop.Appver

type t = {
  problem : Problem.t;
  appver : Appver.t;
  budget : Budget.t;
  engine : string;
  pop_metric : string;
  depth_metric : string;
  exact_metric : string;
  started : float;
  resource : Resource.t;
  nodes : int Atomic.t;
  max_depth : int Atomic.t;
  unresolved : int Atomic.t;
  leaves : Certificate.leaf list Atomic.t option;
}

type node = {
  gamma : Split.gamma;
  depth : int;
  outcome : Outcome.t;
  state : Abonn_prop.Incremental.t option;
}

type 'a item = 'a * int * Abonn_prop.Incremental.t option

type 'a visit =
  worker:int -> push:('a item -> unit) -> 'a item -> float array option

let create ?(certify = false) ~engine ~metrics ~appver ?budget problem =
  { problem;
    appver;
    budget = (match budget with Some b -> b | None -> Budget.unlimited ());
    engine;
    pop_metric = metrics ^ ".pop";
    depth_metric = metrics ^ ".depth";
    exact_metric = metrics ^ ".exact";
    started = Unix.gettimeofday ();
    resource = Resource.create ~engine ();
    nodes = Atomic.make 1;
    max_depth = Atomic.make 0;
    unresolved = Atomic.make 0;
    leaves = (if certify then Some (Atomic.make []) else None) }

let domains = function
  | Some d -> Stdlib.max 1 d
  | None -> Abonn_par.Pool.default_domains ()

let problem k = k.problem
let budget k = k.budget
let engine k = k.engine

let rec raise_depth k d =
  let cur = Atomic.get k.max_depth in
  if d > cur && not (Atomic.compare_and_set k.max_depth cur d) then raise_depth k d

let count k ~depth n =
  ignore (Atomic.fetch_and_add k.nodes n);
  raise_depth k depth

let record k leaf =
  match k.leaves with
  | None -> ()
  | Some leaves ->
    let rec add () =
      let l = Atomic.get leaves in
      if not (Atomic.compare_and_set leaves l (leaf :: l)) then add ()
    in
    add ()

(* --- the node step --- *)

let evaluate k ?(problem = k.problem) ?state gamma ~depth =
  Budget.record_call k.budget;
  let outcome, state = Appver.run_warm k.appver ?state problem gamma in
  let node = { gamma; depth; outcome; state } in
  if Outcome.proved outcome then begin
    record k { Certificate.gamma; phat = outcome.Outcome.phat; by_exact = false };
    (node, `Verified)
  end
  else
    match outcome.Outcome.candidate with
    | Some x when Problem.is_counterexample k.problem x -> (node, `Falsified x)
    | Some _ | None -> (node, `Open)

let child k node gamma =
  count k ~depth:(node.depth + 1) 1;
  evaluate k ?state:node.state gamma ~depth:(node.depth + 1)

let branch k choose node =
  match choose ~gamma:node.gamma ~pre_bounds:node.outcome.Outcome.pre_bounds with
  | Some ch ->
    let relu = ch.Branching.relu in
    Branching.emit_decision ~engine:k.engine ~kind:"relu" ~depth:node.depth ch;
    `Split
      ( Split.extend node.gamma ~relu ~phase:Split.Active,
        Split.extend node.gamma ~relu ~phase:Split.Inactive )
  | None ->
    (* fully stabilised: decide it exactly under the bounds the chooser
       just found stable *)
    Budget.record_call k.budget;
    let resolution =
      Exact.resolve ~pre_bounds:node.outcome.Outcome.pre_bounds k.problem node.gamma
    in
    if Obs.active () then begin
      Obs.incr k.exact_metric;
      if Obs.tracing () then
        Obs.emit
          (Ev.Exact_leaf
             { engine = k.engine; depth = node.depth;
               verified = (resolution = `Verified) })
    end;
    (match resolution with
     | `Verified ->
       record k { Certificate.gamma = node.gamma; phat = infinity; by_exact = true };
       `Verified
     | `Falsified x -> `Falsified x)

let push_children k ~push ~depth state a b =
  count k ~depth:(depth + 1) 2;
  push (a, depth + 1, state);
  push (b, depth + 1, state)

(* One shared pre-split computation per expansion: both children
   warm-start from this node's state. *)
let visit k choosers ~worker ~push (gamma, depth, state) =
  match evaluate k ?state gamma ~depth with
  | _, `Verified -> None
  | _, `Falsified x -> Some x
  | node, `Open ->
    (match branch k choosers.(worker) node with
     | `Split (a, b) ->
       push_children k ~push ~depth node.state a b;
       None
     | `Verified -> None
     | `Falsified x -> Some x)

let unresolved k = Atomic.incr k.unresolved

(* --- frontier bookkeeping --- *)

let tick k ~open_nodes =
  (* the sampler's fields are not synchronised: only the calling domain
     (worker 0 of a pool) ticks it; GC/RSS/CPU readings are process-wide *)
  if Obs.active () then
    match Obs.current_domain () with
    | None | Some 0 ->
      Resource.tick k.resource ~open_nodes ~nodes:(Atomic.get k.nodes)
        ~max_depth:(Atomic.get k.max_depth)
    | Some _ -> ()

let popped k ?(priority = Float.nan) ?runner_up ~depth ~frontier () =
  if Obs.active () then begin
    Obs.incr k.pop_metric;
    Obs.observe k.depth_metric (float_of_int depth);
    if Obs.tracing () then begin
      Obs.emit (Ev.Frontier_pop { engine = k.engine; depth; frontier; priority });
      (* introspection: the priority picture of this pop, right after
         the frontier_pop it explains *)
      match runner_up with
      | Some runner_up when Introspect.enabled () ->
        let sample = Introspect.sample () in
        if sample > 0 then
          Obs.emit
            (Ev.Frontier_decision
               { engine = k.engine; depth; priority; runner_up = runner_up ();
                 frontier; sample })
      | Some _ | None -> ()
    end
  end;
  tick k ~open_nodes:frontier

let finish k ~open_nodes verdict =
  let verdict =
    match verdict with
    | Verdict.Verified when Atomic.get k.unresolved > 0 -> Verdict.Timeout
    | v -> v
  in
  let wall_time = Unix.gettimeofday () -. k.started in
  let nodes = Atomic.get k.nodes and max_depth = Atomic.get k.max_depth in
  Resource.final k.resource ~open_nodes ~nodes ~max_depth;
  if Obs.tracing () then
    Obs.emit
      (Ev.Verdict_reached
         { engine = k.engine; verdict = Verdict.to_string verdict; elapsed = wall_time });
  Result.make ~verdict ~appver_calls:(Budget.calls_used k.budget) ~nodes ~max_depth
    ~wall_time

let certificate k result =
  match (k.leaves, result.Result.verdict) with
  | Some leaves, Verdict.Verified ->
    Some
      { Certificate.leaves = List.rev (Atomic.get leaves);
        appver_name = k.appver.Appver.name }
  | _, (Verdict.Verified | Verdict.Falsified _ | Verdict.Timeout) -> None
