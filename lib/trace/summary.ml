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
  frontier : int;
  best_reward : float;
  depth_counts : int array;
  wall : float;
  events : int;
  composite : bool;
  domains : int;
  domain_stats : domain_stat list;
  pairs : pair_check list;
  reported : reported option;
}

(* --- visits --- *)

let root_gamma = "\xce\xb5" (* ε *)

let parent_gamma gamma =
  if gamma = root_gamma then None
  else
    match String.rindex_opt gamma '.' with
    | Some i -> Some (String.sub gamma 0 i)
    | None -> Some root_gamma

type visit = { gamma : string option; depth : int }

let visit = function
  | Event.Node_evaluated { gamma; depth; _ } -> Some { gamma = Some gamma; depth }
  | Event.Frontier_pop { depth; _ } -> Some { gamma = None; depth }
  | _ -> None

let visits events = List.filter_map (fun env -> visit env.Event.event) events

let same_visit a b =
  match (a.gamma, b.gamma) with
  | Some ga, Some gb -> String.equal ga gb
  | _ -> a.depth = b.depth

let common_prefix va vb =
  let rec walk i = function
    | a :: xs, b :: ys -> if same_visit a b then walk (i + 1) (xs, ys) else (i, Some (a, b))
    | [], _ | _, [] -> (i, None)
  in
  walk 0 (va, vb)

let progress ev =
  match ev with
  | Event.Exact_leaf _ | Event.Verdict_reached _ -> true
  | _ -> visit ev <> None

(* --- the model --- *)

(* The event counts the engine formulas read. *)
type counts = {
  evaluated : int;  (* node_evaluated *)
  pops : int;  (* frontier_pop *)
  after_pop : int;  (* frontier left by the last pop *)
  bounds : int;  (* bound_computed *)
}

(* Pair integrity (schema: decision events and bound_reuse are
   annotations emitted immediately after the event they explain).  Each
   annotation is checked against the previous event, and each
   annotatable host that went unanswered is counted so full-sampling
   ([--introspect 1]) traces can also assert coverage.  Only meaningful
   for sequential interleavings: [run] zeroes the mismatch counts when
   [domains > 1]. *)
type family = { mutable total : int; mutable mis : int; mutable full : bool }

type pairing = {
  mutable prev : Event.t option;
  focus : (string, int) Hashtbl.t;
      (* last depth-bearing host per engine: the node a branch_decision splits *)
  ucb : family;
  fr : family;
  br : family;
  ru : family;
  mutable sel_unpaired : int;
  pop_unpaired : (string, int) Hashtbl.t;  (* per engine *)
  mutable fr_engines : string list;
}

type t = {
  mutable harness : bool;  (* inside a run_started .. run_finished bracket *)
  mutable closed : bool;
  mutable n_events : int;
  mutable engine : string option;
  (* [bracket] is the engine named by the run_started/run_finished pair;
     interior events from a different engine mark the segment composite
     (one wrapper run containing whole engine runs, e.g. a fuzz case). *)
  mutable bracket : string option;
  mutable foreign : bool;
  mutable instance : string option;
  mutable verdict : string option;
  mutable reported : reported option;
  mutable engine_elapsed : float option;
  mutable t_first : float option;
  mutable t_last : float;
  mutable counts : counts;
  mutable exact : int;
  mutable deepest : int;  (* deepest depth-bearing event *)
  (* the engine's own totals from its last resource_sample, the counts
     then, and the deepest event since *)
  mutable sampled : (int * int * counts) option;
  (* appver and depth of the last event when that was a counted
     bound_computed (or its bound_reuse annotation) *)
  mutable last_bound : (string * int) option;
  mutable deepest_since : int;
  mutable frontier : int;
  (* ABONN's open leaves: a node leaves the set when its first child
     arrives *)
  open_leaves : (string, unit) Hashtbl.t;
  mutable best : float;
  mutable profile : int array;  (* visits per depth, grown on demand *)
  tagged : (int, int) Hashtbl.t;  (* envelopes per domain tag *)
  mutable summaries : (int * int * int * int * int) list;  (* domain_summary rows *)
  pairing : pairing;
}

let create () =
  { harness = false;
    closed = false;
    n_events = 0;
    engine = None;
    bracket = None;
    foreign = false;
    instance = None;
    verdict = None;
    reported = None;
    engine_elapsed = None;
    t_first = None;
    t_last = 0.0;
    counts = { evaluated = 0; pops = 0; after_pop = 0; bounds = 0 };
    exact = 0;
    deepest = 0;
    sampled = None;
    last_bound = None;
    deepest_since = 0;
    frontier = 0;
    open_leaves = Hashtbl.create 64;
    best = Float.nan;
    profile = Array.make 16 0;
    tagged = Hashtbl.create 4;
    summaries = [];
    pairing =
      (let family () = { total = 0; mis = 0; full = true } in
       { prev = None; focus = Hashtbl.create 4; ucb = family (); fr = family ();
         br = family (); ru = family (); sel_unpaired = 0;
         pop_unpaired = Hashtbl.create 4; fr_engines = [] }) }

let closed m = m.closed

let starts m env =
  m.n_events > 0
  && (m.closed || match env.Event.event with Event.Run_started _ -> true | _ -> false)

let bump tbl key = Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))

let feq a b = (Float.is_nan a && Float.is_nan b) || a = b

(* The obligation [prev] leaves open unless [current] answers it. *)
let unanswered prev current =
  match prev with
  | Some (Event.Node_selected { engine = en; depth = d; ucb }) when not (Float.is_nan ucb) ->
    (match current with
     | Some (Event.Ucb_decision { engine = en'; depth = d'; _ }) when en' = en && d' = d ->
       `None
     | _ -> `Selection)
  | Some (Event.Frontier_pop { engine = en; priority; _ }) when not (Float.is_nan priority)
    ->
    (match current with
     | Some (Event.Frontier_decision { engine = en'; _ }) when en' = en -> `None
     | _ -> `Pop en)
  | _ -> `None

(* One annotation of family [f], [ok] when it answers the right host. *)
let note f ~sample ok =
  f.total <- f.total + 1;
  if sample > 1 then f.full <- false;
  if not ok then f.mis <- f.mis + 1

let pair_step p current =
  (match unanswered p.prev (Some current) with
   | `Selection -> p.sel_unpaired <- p.sel_unpaired + 1
   | `Pop en -> bump p.pop_unpaired en
   | `None -> ());
  (match current with
   | Event.Ucb_decision { engine = en; depth = d; sample; _ } ->
     note p.ucb ~sample
       (match p.prev with
        | Some (Event.Node_selected { engine = en'; depth = d'; ucb }) ->
          en' = en && d' = d && not (Float.is_nan ucb)
        | _ -> false)
   | Event.Frontier_decision { engine = en; depth = d; priority; sample; _ } ->
     if not (List.mem en p.fr_engines) then p.fr_engines <- en :: p.fr_engines;
     note p.fr ~sample
       (match p.prev with
        | Some (Event.Frontier_pop { engine = en'; depth = d'; priority = p'; _ }) ->
          en' = en && d' = d && feq priority p'
        | _ -> false)
   | Event.Branch_decision { engine = en; depth = d; _ } ->
     (* an engine with no depth-bearing host events leaves no focus to
        check against; that is not a mismatch *)
     note p.br ~sample:1
       (match Hashtbl.find_opt p.focus en with Some fd -> fd = d | None -> true)
   | Event.Bound_reuse { appver = a; depth = d; _ } ->
     note p.ru ~sample:1
       (match p.prev with
        | Some (Event.Bound_computed { appver = a'; depth = d'; _ }) -> a' = a && d' = d
        | _ -> false)
   | _ -> ());
  (match current with
   | Event.Node_selected { engine = en; depth = d; _ }
   | Event.Node_evaluated { engine = en; depth = d; _ }
   | Event.Frontier_pop { engine = en; depth = d; _ } ->
     Hashtbl.replace p.focus en d
   | _ -> ());
  p.prev <- Some current

let saw_engine m e =
  if m.engine = None then m.engine <- Some e;
  match m.bracket with Some b when b <> e -> m.foreign <- true | _ -> ()

let depth m d =
  if d > m.deepest then m.deepest <- d;
  if d > m.deepest_since then m.deepest_since <- d

let better m v = if Float.is_nan m.best || v > m.best then m.best <- v

let visited m d =
  if d >= Array.length m.profile then begin
    let grown = Array.make (2 * (d + 1)) 0 in
    Array.blit m.profile 0 grown 0 (Array.length m.profile);
    m.profile <- grown
  end;
  m.profile.(d) <- m.profile.(d) + 1

let feed m env =
  m.n_events <- m.n_events + 1;
  if m.t_first = None then m.t_first <- Some env.Event.t;
  m.t_last <- env.Event.t;
  pair_step m.pairing env.Event.event;
  Option.iter (bump m.tagged) env.Event.domain;
  let last_bound = m.last_bound in
  (match env.Event.event with Event.Bound_reuse _ -> () | _ -> m.last_bound <- None);
  let c = m.counts in
  match env.Event.event with
  | Event.Run_started { engine = e; instance = i } ->
    if m.bracket = None then m.bracket <- Some e;
    saw_engine m e;
    m.instance <- Some i;
    m.harness <- true
  | Event.Run_finished { engine = e; verdict = v; calls; nodes; max_depth = d; wall; _ } ->
    saw_engine m e;
    if m.verdict = None then m.verdict <- Some v;
    m.reported <- Some { verdict = v; calls; nodes; max_depth = d; wall };
    m.harness <- false;
    m.closed <- true
  | Event.Node_selected { engine = e; _ } | Event.Backprop { engine = e; _ } -> saw_engine m e
  | Event.Node_evaluated { engine = e; depth = d; gamma; reward; _ } ->
    saw_engine m e;
    m.counts <- { c with evaluated = c.evaluated + 1 };
    depth m d;
    visited m d;
    better m reward;
    Option.iter (Hashtbl.remove m.open_leaves) (parent_gamma gamma);
    if Float.is_finite reward then Hashtbl.replace m.open_leaves gamma ();
    m.frontier <- Hashtbl.length m.open_leaves
  | Event.Frontier_pop { engine = e; depth = d; frontier; priority } ->
    saw_engine m e;
    m.counts <- { c with pops = c.pops + 1; after_pop = frontier };
    depth m d;
    visited m d;
    if Float.is_finite priority then better m priority;
    m.frontier <- frontier
  | Event.Exact_leaf { engine = e; depth = d; verified } ->
    saw_engine m e;
    m.exact <- m.exact + 1;
    depth m d;
    if not verified then better m Float.infinity
  | Event.Bound_computed { appver = a; depth = d; _ } ->
    (* an escalated triaged call (Appver.triaged) is its cheap
       verifier's bound, then straight away the expensive one's at the
       same depth: one call *)
    (match last_bound with
     | Some (a', d') when d' = d && not (String.equal a' a) -> ()
     | _ ->
       m.counts <- { c with bounds = c.bounds + 1 };
       m.last_bound <- Some (a, d));
    depth m d
  | Event.Resource_sample { nodes; max_depth = d; _ } ->
    m.sampled <- Some (nodes, d, c);
    m.deepest_since <- 0
  (* annotations of events counted above, and spans: no AppVer work *)
  | Event.Lp_solved _ | Event.Lp_warm _ | Event.Attack_tried _ | Event.Bound_reuse _ -> ()
  | Event.Verdict_reached { engine = e; verdict = v; elapsed } ->
    saw_engine m e;
    m.verdict <- Some v;
    m.engine_elapsed <- Some elapsed;
    (* inside a harness bracket the engine verdict is interior; the
       bracketing run_finished ends the run *)
    if not m.harness then m.closed <- true
  | Event.Domain_summary { engine = e; domain; processed; pushed; stolen; idle } ->
    saw_engine m e;
    m.summaries <- (domain, processed, pushed, stolen, idle) :: m.summaries
  | Event.Ucb_decision { engine = e; _ }
  | Event.Branch_decision { engine = e; _ }
  | Event.Frontier_decision { engine = e; _ } -> saw_engine m e

(* AppVer calls and nodes by the engine's own counting (module doc). *)
let calls_of engine c =
  match engine with
  | "abonn" -> c.evaluated
  | "bab-baseline" -> c.pops
  | _ -> c.bounds

let nodes_of engine c =
  match engine with
  | "abonn" -> c.evaluated
  | "bab-baseline" | "inputsplit" -> c.pops + c.after_pop
  | "bestfirst" | "ab-crown" -> c.bounds
  | _ -> Stdlib.max c.evaluated (Stdlib.max c.pops c.bounds)

let domain_stats m =
  let ids =
    Hashtbl.fold (fun d _ acc -> d :: acc) m.tagged []
    |> List.append (List.map (fun (d, _, _, _, _) -> d) m.summaries)
    |> List.sort_uniq Stdlib.compare
  in
  List.map
    (fun d ->
      let processed, pushed, stolen, idle =
        match List.find_opt (fun (d', _, _, _, _) -> d' = d) m.summaries with
        | Some (_, p, pu, st, i) -> (p, pu, st, i)
        | None -> (0, 0, 0, 0)
      in
      let events = Option.value ~default:0 (Hashtbl.find_opt m.tagged d) in
      { domain = d; processed; pushed; stolen; idle; events })
    ids

(* Coverage (host without annotation) is only a defect under full
   sampling: with --introspect 1 every eligible host must be answered;
   a sampled trace legitimately skips most.  Adjacency violations
   (annotation with the wrong host) are always defects. *)
let pairs p =
  let sel_unpaired, pop_pending =
    match unanswered p.prev None with
    | `Selection -> (p.sel_unpaired + 1, None)
    | `Pop en -> (p.sel_unpaired, Some en)
    | `None -> (p.sel_unpaired, None)
  in
  let sel_mis = if p.ucb.total > 0 && p.ucb.full then sel_unpaired else 0 in
  let pop_mis =
    if p.fr.total > 0 && p.fr.full then
      List.fold_left
        (fun acc en ->
          acc
          + Option.value ~default:0 (Hashtbl.find_opt p.pop_unpaired en)
          + if pop_pending = Some en then 1 else 0)
        0 p.fr_engines
    else 0
  in
  List.filter_map
    (fun (kind, f, extra) ->
      if f.total = 0 then None else Some { kind; total = f.total; mismatch = f.mis + extra })
    [ ("ucb", p.ucb, sel_mis); ("frontier", p.fr, pop_mis); ("branch", p.br, 0);
      ("bound_reuse", p.ru, 0) ]

let run m =
  let engine = Option.value ~default:"?" m.engine in
  let c = m.counts in
  let calls = calls_of engine c + m.exact in
  (* Every engine's finish path takes a final resource sample carrying
     its own node count and max depth, which see the children pushed
     after the last pop; the events since a sample add to it. *)
  let nodes, max_depth =
    match m.sampled with
    | Some (n, d, then_) ->
      (n + nodes_of engine c - nodes_of engine then_, Stdlib.max d m.deepest_since)
    | None -> (nodes_of engine c, m.deepest)
  in
  let wall =
    match (m.engine_elapsed, m.reported) with
    | Some e, _ -> e
    | None, Some r -> r.wall
    | None, None -> m.t_last -. Option.value ~default:m.t_last m.t_first
  in
  let composite = m.foreign && m.bracket <> None in
  let domain_stats = domain_stats m in
  let domains =
    List.fold_left (fun acc d -> Stdlib.max acc (d.domain + 1)) 0 domain_stats
  in
  (* A composite bracket wraps whole engine runs, and a parallel run's
     interleaving is scheduling-dependent: per-engine event formulas do
     not apply to either, so the run's own report is the truth. *)
  let verdict, calls, nodes, max_depth, wall =
    match (composite || domains > 1, m.reported) with
    | true, Some r -> (Some r.verdict, r.calls, r.nodes, r.max_depth, r.wall)
    | _ -> (m.verdict, calls, nodes, max_depth, wall)
  in
  let pairs = pairs m.pairing in
  { engine = (if composite then Option.value ~default:engine m.bracket else engine);
    instance = m.instance;
    verdict;
    calls;
    nodes;
    max_depth;
    frontier = m.frontier;
    best_reward = m.best;
    depth_counts = Array.init (max_depth + 1) (fun d ->
        if d < Array.length m.profile then m.profile.(d) else 0);
    wall;
    events = m.n_events;
    composite;
    domains;
    domain_stats;
    pairs =
      (if domains > 1 then List.map (fun p -> { p with mismatch = 0 }) pairs else pairs);
    reported = m.reported }

let of_events events =
  let m = create () in
  List.iter (feed m) events;
  run m

(* One model per segment, in trace order. *)
let split events =
  let done_ = ref [] and m = ref (create ()) and seg = ref [] in
  let close () = if !seg <> [] then done_ := (!m, List.rev !seg) :: !done_ in
  List.iter
    (fun env ->
      if starts !m env then begin
        close ();
        m := create ();
        seg := []
      end;
      feed !m env;
      seg := env :: !seg)
    events;
  close ();
  List.rev !done_

let segments events = List.map snd (split events)
let runs events = List.map (fun (m, _) -> run m) (split events)

let consistent (run : run) =
  match run.reported with
  | None -> true
  | Some r ->
    Some r.verdict = run.verdict && r.calls = run.calls && r.nodes = run.nodes
    && r.max_depth = run.max_depth

let pairs_ok (run : run) = List.for_all (fun p -> p.mismatch = 0) run.pairs

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
    (fun i (r : run) ->
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
