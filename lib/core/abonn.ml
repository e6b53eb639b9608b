module Budget = Abonn_util.Budget
module Rng = Abonn_util.Rng
module Obs = Abonn_obs.Obs
module Ev = Abonn_obs.Event
module Sink = Abonn_obs.Sink
module Introspect = Abonn_obs.Introspect
module Split = Abonn_spec.Split
module Verdict = Abonn_spec.Verdict
module Problem = Abonn_spec.Problem
module Outcome = Abonn_prop.Outcome
module Branching = Abonn_bab.Branching
module Result = Abonn_bab.Result
module Expand = Abonn_bab.Expand
module Parfrontier = Abonn_bab.Parfrontier
module Pool = Abonn_par.Pool

type node = {
  bab : Expand.node;  (* Γ, depth, AppVer outcome and warm state *)
  mutable reward : float;
  mutable size : int;  (* |T(Γ)|: nodes in the sub-tree rooted here *)
  mutable children : (node * node) option;
}

type search = {
  k : Expand.t;
  config : Config.t;
  choose : Branching.chooser;
  num_relus : int;
  phat_min : float;  (* Def. 1 normaliser: the root's p̂ *)
  rng : Rng.t option;  (* only for the Uniform_random ablation *)
  mutable found_cex : float array option;
}

let potentiality s ~depth ~phat ~valid_cex =
  Potentiality.value ~lambda:s.config.Config.lambda ~num_relus:s.num_relus
    ~phat_min:s.phat_min ~depth ~phat ~valid_cex

(* Score a freshly evaluated node: its reward, telemetry and resource
   tick. *)
let eval_node s ((bab : Expand.node), status) =
  let depth = bab.depth and phat = bab.outcome.Outcome.phat in
  let valid_cex =
    match status with
    | `Falsified x ->
      s.found_cex <- Some x;
      true
    | `Verified | `Open -> false
  in
  let reward = potentiality s ~depth ~phat ~valid_cex in
  if Obs.active () then begin
    Obs.incr "abonn.expand";
    Obs.observe "abonn.depth" (float_of_int depth);
    if Obs.tracing () then
      Obs.emit
        (Ev.Node_evaluated
           { engine = "abonn"; depth; gamma = Split.to_string bab.gamma; phat; reward })
  end;
  (* MCTS has no explicit frontier; open_nodes is 0 by convention *)
  Expand.tick s.k ~open_nodes:0;
  { bab; reward; size = 1; children = None }

(* UCB1 (Alg. 1 Line 13), kept split into its exploitation (mean reward)
   and exploration (confidence radius) terms so introspection can report
   the decomposition without perturbing the scalar the search compares. *)
let explore_term s parent child =
  s.config.Config.c
  *. sqrt (2.0 *. log (float_of_int parent.size) /. float_of_int child.size)

let ucb1 s parent child = child.reward +. explore_term s parent child

let select s parent (plus, minus) =
  let chosen, score =
    match s.rng with
    | Some rng ->
      (* ablation: ignore rewards entirely *)
      let live c = c.reward > neg_infinity in
      let chosen =
        match live plus, live minus with
        | true, true -> if Rng.bool rng then plus else minus
        | true, false -> plus
        | false, true -> minus
        | false, false -> plus (* caller prunes via reward update *)
      in
      (chosen, Float.nan)
    | None ->
      let sp = ucb1 s parent plus and sm = ucb1 s parent minus in
      if sp >= sm then (plus, sp) else (minus, sm)
  in
  if Obs.active () then begin
    Obs.incr "abonn.select";
    if Obs.tracing () then begin
      Obs.emit
        (Ev.Node_selected { engine = "abonn"; depth = chosen.bab.depth; ucb = score });
      (* Introspection: the full candidate picture behind this descent
         step, right after the node_selected it explains.  The ablation
         has no UCB to decompose, so it stays silent. *)
      if Option.is_none s.rng && Introspect.enabled () then begin
        let smp = Introspect.sample () in
        if smp > 0 then
          Obs.emit
            (Ev.Ucb_decision
               { engine = "abonn"; depth = chosen.bab.depth;
                 chosen = (if chosen == plus then "+" else "-");
                 sample = smp;
                 plus_exploit = plus.reward;
                 plus_explore = explore_term s parent plus;
                 plus_visits = plus.size;
                 minus_exploit = minus.reward;
                 minus_explore = explore_term s parent minus;
                 minus_visits = minus.size })
      end
    end
  end;
  chosen

(* Expansion (Lines 16–19): split on H's ReLU and evaluate both
   children, each warm from this node's state; fully-stabilised leaves
   are decided exactly instead. *)
let expand s node =
  match Expand.branch s.k s.choose node.bab with
  | `Split (active, inactive) ->
    let plus = eval_node s (Expand.child s.k node.bab active) in
    let minus = eval_node s (Expand.child s.k node.bab inactive) in
    node.children <- Some (plus, minus)
  | `Verified -> node.reward <- neg_infinity
  | `Falsified x ->
    s.found_cex <- Some x;
    node.reward <- infinity

(* One MCTS-BAB descent (Alg. 1 Lines 10–21).  Rewards and sizes are
   refreshed on the way back up so every ancestor sees the new frontier. *)
let rec mcts_bab s node =
  begin match node.children with
  | Some ((plus, minus) as pair) ->
    if Float.max plus.reward minus.reward = neg_infinity then
      (* both sub-trees proved: nothing to descend into *)
      ()
    else mcts_bab s (select s node pair)
  | None -> expand s node
  end;
  match node.children with
  | Some (plus, minus) ->
    node.reward <- Float.max plus.reward minus.reward;
    node.size <- 1 + plus.size + minus.size;
    if Obs.active () then begin
      Obs.incr "abonn.backprop";
      if Obs.tracing () then
        Obs.emit
          (Ev.Backprop
             { engine = "abonn"; depth = node.bab.depth; reward = node.reward;
               size = node.size })
    end
  | None -> ()

(* The legacy [?trace] callback, re-expressed as an observability sink:
   it fires on exactly the [Node_evaluated] events this engine emits, so
   callers observe the same per-node order as before. *)
let trace_sink trace =
  Sink.callback (fun env ->
      match env.Ev.event with
      | Ev.Node_evaluated { depth; gamma; reward; _ } ->
        trace ~depth ~gamma:(Split.of_string gamma) ~reward
      | _ -> ())

(* Initialisation (Lines 1–4), shared by both searches: evaluate the
   root.  The normaliser needs the root p̂, so the root is scored under a
   placeholder first and re-scored under the final normaliser. *)
let start ~config ?budget problem =
  let k =
    Expand.create ~engine:"abonn" ~metrics:"abonn" ~appver:config.Config.appver ?budget
      problem
  in
  let s =
    { k;
      config;
      choose = config.Config.heuristic.Branching.prepare problem;
      num_relus = Stdlib.max 1 (Problem.num_relus problem);
      phat_min = -1.0;
      rng =
        (match config.Config.selection with
         | Config.Ucb1 -> None
         | Config.Uniform_random seed -> Some (Rng.create seed));
      found_cex = None }
  in
  let root = eval_node s (Expand.evaluate k [] ~depth:0) in
  let phat = root.bab.outcome.Outcome.phat in
  let s = { s with phat_min = Float.min phat (-1e-12) } in
  let reward = potentiality s ~depth:0 ~phat ~valid_cex:(s.found_cex <> None) in
  (s, { root with reward })

(* Termination (Line 5 / Lines 6–9). *)
let mcts s root =
  let finish = Expand.finish s.k ~open_nodes:0 in
  let rec loop () =
    if root.reward = infinity then
      match s.found_cex with
      | Some x -> finish (Verdict.Falsified x)
      | None -> finish Verdict.Timeout (* unreachable: +∞ implies a stored cex *)
    else if root.reward = neg_infinity then finish Verdict.Verified
    else if Budget.exhausted (Expand.budget s.k) then finish Verdict.Timeout
    else begin
      mcts_bab s root;
      loop ()
    end
  in
  loop ()

(* --- parallel ABONN: seed expansion + per-subtree search portfolio ---

   A UCB1 descent is inherently sequential (each selection depends on
   the rewards the previous iteration back-propagated), so ABONN is
   parallelised at the sub-tree level instead: a short sequential BFS
   seed phase grows the tree until the frontier holds at least
   2 × domains undecided nodes, then each frontier node becomes one
   work-stealing pool item and gets a full, independent MCTS search of
   its sub-tree.  Sub-trees are disjoint and every frontier node
   carries its own incremental bound state, so workers share nothing
   but the run's atomic counts, the budget and the stop state.  See
   docs/PARALLELISM.md. *)
let portfolio s root ~domains =
  let budget = Expand.budget s.k in
  let finish = Expand.finish s.k ~open_nodes:0 in
  (* Seed phase: breadth-first expansion on the calling domain until
     the frontier can feed every worker (≥ 2 sub-trees per domain). *)
  let frontier = Queue.create () in
  let undecided n = n.reward > neg_infinity && n.reward < infinity in
  if undecided root then Queue.add root frontier;
  let rec seed () =
    if s.found_cex <> None then `Cex
    else if Queue.is_empty frontier then `All_proved
    else if Budget.exhausted budget then `Timeout
    else if Queue.length frontier >= 2 * domains then `Frontier
    else begin
      let node = Queue.pop frontier in
      expand s node;
      (match node.children with
       | Some (plus, minus) ->
         if undecided plus then Queue.add plus frontier;
         if undecided minus then Queue.add minus frontier
       | None -> () (* exact leaf: reward pinned to ±∞ by [expand] *));
      seed ()
    end
  in
  match seed () with
  | `Cex -> finish (Verdict.Falsified (Option.get s.found_cex))
  | `All_proved -> finish Verdict.Verified
  | `Timeout -> finish Verdict.Timeout
  | `Frontier ->
    let st = Parfrontier.create () in
    let config = s.config in
    let work ctx (node : node) =
      if not (Pool.stop_requested ctx) then begin
        let s =
          { s with
            choose = config.Config.heuristic.Branching.prepare (Expand.problem s.k);
            rng =
              (match config.Config.selection with
               | Config.Ucb1 -> None
               | Config.Uniform_random _ -> Some (Pool.rng ctx));
            found_cex = None }
        in
        let rec sub_loop () =
          if node.reward = infinity then
            match s.found_cex with
            | Some x -> Parfrontier.note_cex st ctx x
            | None -> Parfrontier.note_timeout st ctx
          else if node.reward = neg_infinity (* sub-tree proved *)
                  || Pool.stop_requested ctx then ()
          else if Budget.exhausted budget then Parfrontier.note_timeout st ctx
          else begin
            mcts_bab s node;
            sub_loop ()
          end
        in
        sub_loop ()
      end
    in
    let rng_seed =
      match config.Config.selection with
      | Config.Ucb1 -> 0
      | Config.Uniform_random seed -> seed
    in
    let roots = List.of_seq (Queue.to_seq frontier) in
    ignore (Pool.run ~domains ~seed:rng_seed ~engine:"abonn" ~roots ~work ());
    finish (Parfrontier.verdict st)

let verify ?(config = Config.default) ?budget ?trace ?domains problem =
  let domains = Expand.domains domains in
  let search () =
    let s, root = start ~config ?budget problem in
    if domains <= 1 then mcts s root else portfolio s root ~domains
  in
  match trace with
  | None -> search ()
  | Some t -> Obs.with_sink (trace_sink t) search
