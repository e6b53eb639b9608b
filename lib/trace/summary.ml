module Event = Abonn_obs.Event

type reported = {
  verdict : string;
  calls : int;
  nodes : int;
  max_depth : int;
  wall : float;
}

type domain_stat = {
  domain : int;
  processed : int;
  pushed : int;
  stolen : int;
  idle : int;
  events : int;  (** envelopes tagged with this domain *)
}

type pair_check = { kind : string; total : int; mismatch : int }

type run = {
  engine : string;
  instance : string option;
  verdict : string option;
  calls : int;
  nodes : int;
  max_depth : int;
  wall : float;
  events : int;
  composite : bool;
  domains : int;
  domain_stats : domain_stat list;
  pairs : pair_check list;
  reported : reported option;
}

(* --- segmentation --- *)

let segments events =
  (* [current] accumulates the open segment in reverse; [closed] the
     finished segments in reverse.  [harness] is true while inside a
     run_started .. run_finished bracket, where verdict_reached is an
     interior event rather than a terminator. *)
  let closed = ref [] and current = ref [] and harness = ref false in
  let close () =
    if !current <> [] then closed := List.rev !current :: !closed;
    current := [];
    harness := false
  in
  List.iter
    (fun env ->
      match env.Event.event with
      | Event.Run_started _ ->
        close ();
        harness := true;
        current := [ env ]
      | Event.Run_finished _ ->
        current := env :: !current;
        close ()
      | Event.Verdict_reached _ when not !harness ->
        current := env :: !current;
        close ()
      | _ -> current := env :: !current)
    events;
  close ();
  List.rev !closed

(* --- reconstruction --- *)

let of_events events =
  let engine = ref None and instance = ref None and verdict = ref None in
  let reported = ref None in
  (* [bracket] is the engine named by the run_started/run_finished pair;
     interior events from a different engine mark the segment composite
     (one wrapper run containing whole engine runs, e.g. a fuzz case). *)
  let bracket = ref None and foreign = ref false in
  let node_evaluated = ref 0 and frontier_pop = ref 0 and exact_leaf = ref 0 in
  let bound_computed = ref 0 in
  let max_depth = ref 0 and last_frontier = ref 0 in
  (* the engine's own running totals, from its last resource_sample *)
  let sampled = ref None in
  let engine_elapsed = ref None in
  let t_first = ref None and t_last = ref 0.0 in
  (* parallel-run attribution: envelope domain tags + domain_summary *)
  let tagged_events : (int, int ref) Hashtbl.t = Hashtbl.create 4 in
  let summaries = ref [] in
  let saw_engine e =
    if !engine = None then engine := Some e;
    (match !bracket with Some b when b <> e -> foreign := true | _ -> ())
  in
  let depth d = if d > !max_depth then max_depth := d in
  (* --- pair integrity (schema: decision events and bound_reuse are
     annotations emitted immediately after the event they explain).
     [prev] is the previous event in stream order; each annotation is
     checked against it, and each annotatable host that went unanswered
     is counted so full-sampling ([--introspect 1]) traces can also
     assert coverage.  Only meaningful for sequential interleavings —
     the caller zeroes the mismatch counts when [domains > 1]. *)
  let feq a b = (Float.is_nan a && Float.is_nan b) || a = b in
  let ucb_total = ref 0 and ucb_mis = ref 0 and ucb_full = ref true in
  let sel_unpaired = ref 0 in
  let fr_total = ref 0 and fr_mis = ref 0 and fr_full = ref true in
  let pop_unpaired = ref [] and fr_engines = ref [] in
  let br_total = ref 0 and br_mis = ref 0 in
  let ru_total = ref 0 and ru_mis = ref 0 in
  (* last depth-bearing engine event: the node a branch_decision splits *)
  let focus : (string, int) Hashtbl.t = Hashtbl.create 4 in
  let prev = ref None in
  let pair_step current =
    (* obligations the previous event leaves open if not answered now *)
    (match !prev with
     | Some (Event.Node_selected { engine = en; depth = d; ucb })
       when not (Float.is_nan ucb) ->
       (match current with
        | Some (Event.Ucb_decision { engine = en'; depth = d'; _ })
          when en' = en && d' = d -> ()
        | _ -> incr sel_unpaired)
     | Some (Event.Frontier_pop { engine = en; priority; _ })
       when not (Float.is_nan priority) ->
       (match current with
        | Some (Event.Frontier_decision { engine = en'; _ }) when en' = en -> ()
        | _ -> pop_unpaired := en :: !pop_unpaired)
     | _ -> ());
    (* the current annotation's own pairing *)
    (match current with
     | Some (Event.Ucb_decision { engine = en; depth = d; sample; _ }) ->
       incr ucb_total;
       if sample > 1 then ucb_full := false;
       (match !prev with
        | Some (Event.Node_selected { engine = en'; depth = d'; ucb })
          when en' = en && d' = d && not (Float.is_nan ucb) -> ()
        | _ -> incr ucb_mis)
     | Some
         (Event.Frontier_decision { engine = en; depth = d; priority; sample; _ })
       ->
       incr fr_total;
       if sample > 1 then fr_full := false;
       if not (List.mem en !fr_engines) then fr_engines := en :: !fr_engines;
       (match !prev with
        | Some
            (Event.Frontier_pop { engine = en'; depth = d'; priority = p'; _ })
          when en' = en && d' = d && feq priority p' -> ()
        | _ -> incr fr_mis)
     | Some (Event.Branch_decision { engine = en; depth = d; _ }) ->
       incr br_total;
       (* an engine with no depth-bearing host events leaves no focus
          to check against; that is not a mismatch *)
       (match Hashtbl.find_opt focus en with
        | Some fd when fd <> d -> incr br_mis
        | Some _ | None -> ())
     | Some (Event.Bound_reuse { appver = a; depth = d; _ }) ->
       incr ru_total;
       (match !prev with
        | Some (Event.Bound_computed { appver = a'; depth = d'; _ })
          when a' = a && d' = d -> ()
        | _ -> incr ru_mis)
     | _ -> ());
    (match current with
     | Some (Event.Node_selected { engine = en; depth = d; _ })
     | Some (Event.Node_evaluated { engine = en; depth = d; _ })
     | Some (Event.Frontier_pop { engine = en; depth = d; _ }) ->
       Hashtbl.replace focus en d
     | _ -> ());
    match current with Some e -> prev := Some e | None -> ()
  in
  List.iter
    (fun env ->
      if !t_first = None then t_first := Some env.Event.t;
      t_last := env.Event.t;
      pair_step (Some env.Event.event);
      (match env.Event.domain with
       | Some d ->
         (match Hashtbl.find_opt tagged_events d with
          | Some r -> incr r
          | None -> Hashtbl.replace tagged_events d (ref 1))
       | None -> ());
      match env.Event.event with
      | Event.Run_started { engine = e; instance = i } ->
        if !bracket = None then bracket := Some e;
        saw_engine e;
        instance := Some i
      | Event.Run_finished { engine = e; verdict = v; calls; nodes; max_depth = d; wall; _ }
        ->
        saw_engine e;
        if !verdict = None then verdict := Some v;
        reported := Some { verdict = v; calls; nodes; max_depth = d; wall }
      | Event.Node_selected { engine = e; _ } -> saw_engine e
      | Event.Node_evaluated { engine = e; depth = d; _ } ->
        saw_engine e;
        incr node_evaluated;
        depth d
      | Event.Backprop { engine = e; _ } -> saw_engine e
      | Event.Frontier_pop { engine = e; depth = d; frontier; _ } ->
        saw_engine e;
        incr frontier_pop;
        last_frontier := frontier;
        depth d
      | Event.Exact_leaf { engine = e; depth = d; _ } ->
        saw_engine e;
        incr exact_leaf;
        depth d
      | Event.Bound_computed { depth = d; _ } ->
        incr bound_computed;
        depth d
      | Event.Resource_sample { nodes; max_depth = d; _ } -> sampled := Some (nodes, d)
      (* bound_reuse is a cache-effectiveness annotation on the
         preceding bound_computed, not extra AppVer work: it must not
         perturb call/node reconstruction. *)
      | Event.Lp_solved _ | Event.Lp_warm _ | Event.Attack_tried _
      | Event.Bound_reuse _ -> ()
      | Event.Verdict_reached { engine = e; verdict = v; elapsed } ->
        saw_engine e;
        verdict := Some v;
        engine_elapsed := Some elapsed
      | Event.Domain_summary { engine = e; domain; processed; pushed; stolen; idle }
        ->
        saw_engine e;
        summaries := (domain, processed, pushed, stolen, idle) :: !summaries
      (* decision-level introspection annotates events already counted
         above: it must not perturb call/node reconstruction *)
      | Event.Ucb_decision { engine = e; _ }
      | Event.Branch_decision { engine = e; _ }
      | Event.Frontier_decision { engine = e; _ } -> saw_engine e)
    events;
  pair_step None;
  let engine = Option.value ~default:"?" !engine in
  let calls, nodes =
    match engine with
    | "abonn" -> (!node_evaluated + !exact_leaf, !node_evaluated)
    | "bab-baseline" -> (!frontier_pop + !exact_leaf, !frontier_pop + !last_frontier)
    | "bestfirst" -> (!bound_computed + !exact_leaf, !bound_computed)
    | _ ->
      (* Unknown instrumentation (and inputsplit): bound_computed counts
         AppVer work for every built-in approximate verifier. *)
      ( !bound_computed + !exact_leaf,
        Stdlib.max !node_evaluated (Stdlib.max !frontier_pop !bound_computed) )
  in
  (* Every engine's finish path takes a final resource sample carrying
     its own node count and max depth; the event formulas above cannot
     see the children pushed after the last pop. *)
  let nodes, max_depth =
    match !sampled with Some (n, d) -> (n, d) | None -> (nodes, !max_depth)
  in
  let wall =
    match !engine_elapsed with
    | Some e -> e
    | None ->
      (match !reported with
       | Some r -> r.wall
       | None -> !t_last -. Option.value ~default:!t_last !t_first)
  in
  let composite = !foreign && !bracket <> None in
  (* Per-domain attribution: one row per domain that either emitted a
     domain_summary or tagged at least one envelope. *)
  let domain_ids =
    Hashtbl.fold (fun d _ acc -> d :: acc) tagged_events []
    |> List.append (List.map (fun (d, _, _, _, _) -> d) !summaries)
    |> List.sort_uniq Stdlib.compare
  in
  let domain_stats =
    List.map
      (fun d ->
        let processed, pushed, stolen, idle =
          match List.find_opt (fun (d', _, _, _, _) -> d' = d) !summaries with
          | Some (_, p, pu, st, i) -> (p, pu, st, i)
          | None -> (0, 0, 0, 0)
        in
        let events =
          match Hashtbl.find_opt tagged_events d with Some r -> !r | None -> 0
        in
        { domain = d; processed; pushed; stolen; idle; events })
      domain_ids
  in
  let domains =
    match domain_ids with [] -> 0 | ids -> 1 + List.fold_left Stdlib.max 0 ids
  in
  (* A composite bracket wraps whole engine runs: per-engine event
     reconstruction does not apply, so the wrapper's own accounting is
     the ground truth for the row.  A parallel run ([domains > 1]) is
     handled the same way: its event interleaving is scheduling-
     dependent, so sequential reconstruction formulas (e.g. "frontier
     after the last pop") do not apply and the engine's own report is
     taken as truth. *)
  let reported_is_truth = composite || domains > 1 in
  let verdict, calls, nodes, max_depth, wall =
    match (reported_is_truth, !reported) with
    | true, Some r -> (Some r.verdict, r.calls, r.nodes, r.max_depth, r.wall)
    | _ -> (!verdict, calls, nodes, max_depth, wall)
  in
  (* Coverage (host without annotation) is only a defect under full
     sampling: with --introspect 1 every eligible host must be answered;
     a sampled trace legitimately skips most.  Adjacency violations
     (annotation with the wrong host) are always defects — except in a
     parallel interleaving, where adjacency itself is scheduling-
     dependent, so mismatch counts are zeroed like the reported-stats
     checks. *)
  let pairs =
    let sel_mis = if !ucb_total > 0 && !ucb_full then !sel_unpaired else 0 in
    let pop_mis =
      if !fr_total > 0 && !fr_full then
        List.length (List.filter (fun e -> List.mem e !fr_engines) !pop_unpaired)
      else 0
    in
    List.filter
      (fun p -> p.total > 0)
      [ { kind = "ucb"; total = !ucb_total; mismatch = !ucb_mis + sel_mis };
        { kind = "frontier"; total = !fr_total; mismatch = !fr_mis + pop_mis };
        { kind = "branch"; total = !br_total; mismatch = !br_mis };
        { kind = "bound_reuse"; total = !ru_total; mismatch = !ru_mis } ]
  in
  let pairs =
    if domains > 1 then List.map (fun p -> { p with mismatch = 0 }) pairs
    else pairs
  in
  { engine = (if composite then Option.value ~default:engine !bracket else engine);
    instance = !instance;
    verdict;
    calls;
    nodes;
    max_depth;
    wall;
    events = List.length events;
    composite;
    domains;
    domain_stats;
    pairs;
    reported = !reported }

let runs events = List.map of_events (segments events)

let consistent run =
  match run.reported with
  | None -> true
  | Some r ->
    Some r.verdict = run.verdict && r.calls = run.calls && r.nodes = run.nodes
    && r.max_depth = run.max_depth

let pairs_ok run = List.for_all (fun p -> p.mismatch = 0) run.pairs

(* --- rendering --- *)

let to_string rs =
  let buf = Buffer.create 512 in
  let header =
    Printf.sprintf "%-4s %-12s %-16s %-10s %8s %8s %6s %10s %7s" "#" "engine" "instance"
      "verdict" "calls" "nodes" "depth" "wall s" "events"
  in
  Buffer.add_string buf header;
  Buffer.add_char buf '\n';
  Buffer.add_string buf (String.make (String.length header) '-');
  Buffer.add_char buf '\n';
  List.iteri
    (fun i r ->
      Buffer.add_string buf
        (Printf.sprintf "%-4d %-12s %-16s %-10s %8d %8d %6d %10.4f %7d" (i + 1) r.engine
           (Option.value ~default:"-" r.instance)
           (Option.value ~default:"open" r.verdict)
           r.calls r.nodes r.max_depth r.wall r.events);
      if not (consistent r) then begin
        Buffer.add_string buf "  [MISMATCH";
        (match r.reported with
         | Some rep ->
           Buffer.add_string buf
             (Printf.sprintf " reported calls=%d nodes=%d depth=%d verdict=%s" rep.calls
                rep.nodes rep.max_depth rep.verdict)
         | None -> ());
        Buffer.add_char buf ']'
      end;
      Buffer.add_char buf '\n';
      if r.pairs <> [] then begin
        Buffer.add_string buf "     pairs:";
        List.iter
          (fun p ->
            Buffer.add_string buf
              (if p.mismatch = 0 then Printf.sprintf "  %s %d ok" p.kind p.total
               else
                 Printf.sprintf "  %s %d [MISMATCH %d]" p.kind p.total
                   p.mismatch))
          r.pairs;
        Buffer.add_char buf '\n'
      end;
      if r.domains > 1 then
        List.iter
          (fun d ->
            Buffer.add_string buf
              (Printf.sprintf
                 "     domain %-2d   processed %8d   pushed %8d   stolen %6d   idle %8d   events %7d\n"
                 d.domain d.processed d.pushed d.stolen d.idle d.events))
          r.domain_stats)
    rs;
  Buffer.contents buf
