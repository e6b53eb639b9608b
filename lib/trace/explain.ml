module Event = Abonn_obs.Event

type depth_balance = {
  depth : int;
  decisions : int;
  mean_exploit : float;
  mean_explore : float;
  flips : int;
}

type reward_error = {
  depth : int;
  pairs : int;
  mean_abs_err : float;
  bias : float;
}

type divergence = {
  common_prefix : int;
  first_divergence : int option;
  jaccard : float;
  only_a : int;
  only_b : int;
}

type t = {
  engine : string;
  verdict : string option;
  nodes : int;
  wasted : int;
  wasted_frac : float;
  open_frac : float;
  balance : depth_balance list;
  reward_err : reward_error list;
  branch_decisions : int;
  branch_margin : float;
  divergence : divergence option;
}

(* --- wasted work ----------------------------------------------------

   "Wasted" = evaluated nodes whose subtree contributed nothing to the
   verdict.  On a falsified run only the root-to-counterexample path
   was necessary (BaB could have gone straight there); on a verified
   run every subtree had to be proved, so nothing is wasted by
   definition; an inconclusive run has no verdict to attribute against,
   so the fraction is [nan] and the open-leaf share is reported
   instead. *)

let tree_nodes tree =
  match tree.Tree.root with
  | None -> []
  | Some root ->
    let acc = ref [] in
    let rec walk n =
      acc := n :: !acc;
      List.iter walk n.Tree.children
    in
    walk root;
    !acc

let wasted_work ~verdict tree =
  let nodes = tree_nodes tree in
  let total = List.length nodes in
  let opens =
    List.length
      (List.filter
         (fun n -> n.Tree.children = [] && Float.is_finite n.Tree.reward)
         nodes)
  in
  let open_frac =
    if total > 0 then float_of_int opens /. float_of_int total else Float.nan
  in
  match verdict with
  | Some "verified" -> (0, 0.0, open_frac)
  | Some v when String.length v >= 9 && String.sub v 0 9 = "falsified" ->
    let cex = List.filter (fun n -> n.Tree.reward = Float.infinity) nodes in
    if cex = [] || total = 0 then (0, Float.nan, open_frac)
    else begin
      (* mark every ancestor-or-self of a counterexample leaf as useful *)
      let useful = Hashtbl.create 64 in
      let rec mark gamma =
        if not (Hashtbl.mem useful gamma) then begin
          Hashtbl.replace useful gamma ();
          match Summary.parent_gamma gamma with
          | Some p -> mark p
          | None -> ()
        end
      in
      List.iter (fun n -> mark n.Tree.gamma) cex;
      let wasted =
        List.length
          (List.filter (fun n -> not (Hashtbl.mem useful n.Tree.gamma)) nodes)
      in
      (wasted, float_of_int wasted /. float_of_int total, open_frac)
    end
  | _ -> (0, Float.nan, open_frac)

(* --- per-depth aggregation helpers --- *)

let by_depth fold_rows =
  let tbl : (int, float ref * float ref * int ref * int ref) Hashtbl.t =
    Hashtbl.create 16
  in
  let cell d =
    match Hashtbl.find_opt tbl d with
    | Some c -> c
    | None ->
      let c = (ref 0.0, ref 0.0, ref 0, ref 0) in
      Hashtbl.replace tbl d c;
      c
  in
  fold_rows cell;
  Hashtbl.fold (fun d c acc -> (d, c) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* exploration/exploitation balance of the chosen child, per depth *)
let balance_of events =
  by_depth (fun cell ->
      List.iter
        (fun env ->
          match env.Event.event with
          | Event.Ucb_decision
              { depth; chosen; plus_exploit; plus_explore; minus_exploit;
                minus_explore; _ } ->
            let exploit, explore, rejected =
              if chosen = "+" then (plus_exploit, plus_explore, minus_exploit)
              else (minus_exploit, minus_explore, plus_exploit)
            in
            let sum_x, sum_e, n, flips = cell depth in
            if Float.is_finite exploit && Float.is_finite explore then begin
              sum_x := !sum_x +. exploit;
              sum_e := !sum_e +. explore;
              incr n
            end;
            (* a flip: exploration overrode pure exploitation — the
               chosen child's mean reward was the worse of the two *)
            if exploit < rejected then incr flips
          | _ -> ())
        events)
  |> List.map (fun (depth, (sum_x, sum_e, n, flips)) ->
         let nf = float_of_int (max 1 !n) in
         { depth;
           decisions = !n;
           mean_exploit = !sum_x /. nf;
           mean_explore = !sum_e /. nf;
           flips = !flips })

(* reward-prediction error: a node's evaluation-time reward predicts the
   best reward its subtree will surface; compare against the max of the
   children's evaluation-time rewards (pure Def. 1 data — needs no
   introspection events). *)
let reward_errors tree =
  by_depth (fun cell ->
      List.iter
        (fun n ->
          match n.Tree.children with
          | [] -> ()
          | children ->
            let actual =
              List.fold_left
                (fun acc c -> Float.max acc c.Tree.reward)
                Float.neg_infinity children
            in
            if Float.is_finite n.Tree.reward && Float.is_finite actual then begin
              let sum_abs, sum_err, n_ref, _ = cell n.Tree.depth in
              let err = actual -. n.Tree.reward in
              sum_abs := !sum_abs +. Float.abs err;
              sum_err := !sum_err +. err;
              incr n_ref
            end)
        (tree_nodes tree))
  |> List.filter_map (fun (depth, (sum_abs, sum_err, n, _)) ->
         if !n = 0 then None
         else
           let nf = float_of_int !n in
           Some
             { depth;
               pairs = !n;
               mean_abs_err = !sum_abs /. nf;
               bias = !sum_err /. nf })

let branch_stats events =
  let n = ref 0 and margins = ref 0.0 and with_margin = ref 0 in
  List.iter
    (fun env ->
      match env.Event.event with
      | Event.Branch_decision { score; runner_up; runner_up_score; _ } ->
        incr n;
        if runner_up >= 0 && Float.is_finite score
           && Float.is_finite runner_up_score
        then begin
          margins := !margins +. (score -. runner_up_score);
          incr with_margin
        end
      | _ -> ())
    events;
  ( !n,
    if !with_margin > 0 then !margins /. float_of_int !with_margin
    else Float.nan )

(* --- policy divergence vs a second trace --- *)

(* The visit sequences compared by the run model's visit rule; the
   visit sets are keyed by gamma, or by depth where a visit has none. *)
let diverge a b =
  let va = Summary.visits a and vb = Summary.visits b in
  let common, first = Summary.common_prefix va vb in
  let set l =
    let t = Hashtbl.create 64 in
    List.iter
      (fun (v : Summary.visit) ->
        Hashtbl.replace t
          (match v.gamma with Some g -> g | None -> string_of_int v.depth)
          ())
      l;
    t
  in
  let sa = set va and sb = set vb in
  let inter =
    Hashtbl.fold (fun k () acc -> if Hashtbl.mem sb k then acc + 1 else acc) sa 0
  in
  let union = Hashtbl.length sa + Hashtbl.length sb - inter in
  { common_prefix = common;
    first_divergence = Option.map (fun _ -> common) first;
    jaccard =
      (if union > 0 then float_of_int inter /. float_of_int union else 1.0);
    only_a = Hashtbl.length sa - inter;
    only_b = Hashtbl.length sb - inter }

let of_events ?vs events =
  let run = Summary.of_events events in
  let tree = Tree.build events in
  let wasted, wasted_frac, open_frac = wasted_work ~verdict:run.Summary.verdict tree in
  let branch_decisions, branch_margin = branch_stats events in
  { engine = run.Summary.engine;
    verdict = run.Summary.verdict;
    nodes = run.Summary.nodes;
    wasted;
    wasted_frac;
    open_frac;
    balance = balance_of events;
    reward_err = reward_errors tree;
    branch_decisions;
    branch_margin;
    divergence = Option.map (diverge events) vs }

(* --- rendering --- *)

let fpct v = if Float.is_nan v then "n/a" else Printf.sprintf "%.1f%%" (100.0 *. v)
let ffloat v = if Float.is_nan v then "n/a" else Printf.sprintf "%.4f" v

let to_string e =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "search-quality report  engine=%s verdict=%s\n" e.engine
       (Option.value ~default:"open" e.verdict));
  Buffer.add_string buf
    (Printf.sprintf "  tree nodes           %d\n" e.nodes);
  Buffer.add_string buf
    (Printf.sprintf "  wasted work          %s (%d nodes off the verdict path)\n"
       (fpct e.wasted_frac) e.wasted);
  Buffer.add_string buf
    (Printf.sprintf "  open-subtree share   %s\n" (fpct e.open_frac));
  Buffer.add_string buf
    (Printf.sprintf "  branch decisions     %d (mean winner margin %s)\n"
       e.branch_decisions (ffloat e.branch_margin));
  if e.balance <> [] then begin
    Buffer.add_string buf
      "  exploration/exploitation balance per depth (chosen child):\n";
    Buffer.add_string buf
      (Printf.sprintf "    %5s %9s %12s %12s %6s\n" "depth" "decisions"
         "mean exploit" "mean explore" "flips");
    List.iter
      (fun (b : depth_balance) ->
        Buffer.add_string buf
          (Printf.sprintf "    %5d %9d %12s %12s %6d\n" b.depth b.decisions
             (ffloat b.mean_exploit) (ffloat b.mean_explore) b.flips))
      e.balance
  end;
  if e.reward_err <> [] then begin
    Buffer.add_string buf "  reward-prediction error per depth:\n";
    Buffer.add_string buf
      (Printf.sprintf "    %5s %7s %12s %12s\n" "depth" "pairs" "mean |err|"
         "bias");
    List.iter
      (fun (r : reward_error) ->
        Buffer.add_string buf
          (Printf.sprintf "    %5d %7d %12s %12s\n" r.depth r.pairs
             (ffloat r.mean_abs_err) (ffloat r.bias)))
      e.reward_err
  end;
  (match e.divergence with
   | None -> ()
   | Some d ->
     Buffer.add_string buf "  policy divergence vs second trace:\n";
     Buffer.add_string buf
       (Printf.sprintf "    common visit prefix  %d\n" d.common_prefix);
     Buffer.add_string buf
       (Printf.sprintf "    first divergence     %s\n"
          (match d.first_divergence with
           | Some i -> Printf.sprintf "visit #%d" (i + 1)
           | None -> "none (one run is a prefix of the other)"));
     Buffer.add_string buf
       (Printf.sprintf "    visit-set jaccard    %.3f (only here %d, only there %d)\n"
          d.jaccard d.only_a d.only_b));
  Buffer.contents buf
