(* Live-run aggregation behind [abonn_trace watch]: a fold over the
   event stream (fed incrementally by [Reader.tail_poll]) plus a
   terminal dashboard renderer.  Unlike [Summary], which reconstructs a
   finished run exactly, the monitor keeps only what a live view needs:
   running totals, a depth histogram, a recent-window node rate, the
   phase split so far (a [Spans] model, so nested spans count once)
   and the resource (memory) curve. *)

module Event = Abonn_obs.Event
module Table = Abonn_util.Table

type t = {
  mutable engine : string option;
  mutable instance : string option;
  mutable verdict : string option;
  mutable finished : bool;
  mutable harness : bool;  (* inside a run_started..run_finished bracket *)
  mutable events : int;
  mutable calls : int;
  mutable nodes : int;
  mutable max_depth : int;
  mutable frontier : int;
  mutable best : float;
  mutable t_last : float;
  spans : Spans.t;  (* the phase split, nesting resolved *)
  mutable depth_hist : int array;  (* grown on demand *)
  window : (float * int) Queue.t;  (* (t, nodes) for the recent node rate *)
  mutable rss_curve : (float * int) list;  (* (t, rss_bytes), newest first *)
  mutable last_sample : Event.t option;  (* latest Resource_sample payload *)
  mutable domains : int;  (* distinct worker domains seen (0 = sequential) *)
}

let create () =
  { engine = None;
    instance = None;
    verdict = None;
    finished = false;
    harness = false;
    events = 0;
    calls = 0;
    nodes = 0;
    max_depth = 0;
    frontier = 0;
    best = Float.nan;
    t_last = 0.0;
    spans = Spans.create ();
    depth_hist = Array.make 16 0;
    window = Queue.create ();
    rss_curve = [];
    last_sample = None;
    domains = 0 }

let window_seconds = 5.0
let rss_curve_cap = 512

let better m v = if Float.is_nan m.best || v > m.best then m.best <- v

let count_depth m d =
  if d > m.max_depth then m.max_depth <- d;
  if d >= Array.length m.depth_hist then begin
    let grown = Array.make (2 * (d + 1)) 0 in
    Array.blit m.depth_hist 0 grown 0 (Array.length m.depth_hist);
    m.depth_hist <- grown
  end;
  m.depth_hist.(d) <- m.depth_hist.(d) + 1

let note_node m t =
  Queue.push (t, m.nodes) m.window;
  while
    (not (Queue.is_empty m.window))
    && fst (Queue.peek m.window) < t -. window_seconds
  do
    ignore (Queue.pop m.window)
  done

let feed m env =
  m.events <- m.events + 1;
  m.t_last <- env.Event.t;
  Spans.feed m.spans env;
  (match env.Event.domain with
   | Some d when d + 1 > m.domains -> m.domains <- d + 1
   | Some _ | None -> ());
  match env.Event.event with
  | Event.Run_started { engine; instance } ->
    m.harness <- true;
    m.engine <- Some engine;
    m.instance <- Some instance
  | Event.Run_finished { verdict; _ } ->
    m.verdict <- Some verdict;
    m.finished <- true;
    m.harness <- false
  | Event.Node_evaluated { depth; reward; _ } ->
    m.calls <- m.calls + 1;
    m.nodes <- m.nodes + 1;
    count_depth m depth;
    better m reward;
    note_node m env.Event.t
  | Event.Frontier_pop { depth; frontier; priority; _ } ->
    m.calls <- m.calls + 1;
    m.nodes <- m.nodes + 1;
    m.frontier <- frontier;
    count_depth m depth;
    if Float.is_finite priority then better m priority;
    note_node m env.Event.t
  | Event.Exact_leaf { depth; verified; _ } ->
    m.calls <- m.calls + 1;
    count_depth m depth;
    if not verified then better m Float.infinity
  | Event.Node_selected { engine; _ } | Event.Backprop { engine; _ } ->
    if m.engine = None then m.engine <- Some engine
  (* span events feed the phase split above *)
  | Event.Bound_computed _ | Event.Lp_solved _ | Event.Attack_tried _
  | Event.Bound_reuse _ | Event.Lp_warm _ ->
    ()
  | Event.Resource_sample ({ engine; rss_bytes; open_nodes; _ } as s) ->
    if m.engine = None then m.engine <- Some engine;
    m.frontier <- Stdlib.max m.frontier open_nodes;
    m.last_sample <- Some (Event.Resource_sample s);
    m.rss_curve <-
      (env.Event.t, rss_bytes)
      :: (if List.length m.rss_curve >= rss_curve_cap then
            List.filteri (fun i _ -> i < rss_curve_cap - 1) m.rss_curve
          else m.rss_curve)
  | Event.Verdict_reached { engine; verdict; _ } ->
    if m.engine = None then m.engine <- Some engine;
    m.verdict <- Some verdict;
    (* inside a harness bracket the engine verdict is interior
       bookkeeping; the bracketing run_finished ends the run *)
    if not m.harness then m.finished <- true
  | Event.Domain_summary { domain; _ } ->
    if domain + 1 > m.domains then m.domains <- domain + 1
  (* decision-level introspection annotates events already counted above *)
  | Event.Ucb_decision _ | Event.Branch_decision _ | Event.Frontier_decision _
    ->
    ()

let finished m = m.finished

(* nodes/sec over the retained window: newest minus oldest entry. *)
let nodes_per_sec m =
  if Queue.length m.window < 2 then 0.0
  else begin
    let t0, n0 = Queue.peek m.window in
    let t1 = ref t0 and n1 = ref n0 in
    Queue.iter
      (fun (t, n) ->
        t1 := t;
        n1 := n)
      m.window;
    let dt = !t1 -. t0 in
    if dt <= 0.0 then 0.0 else float_of_int (!n1 - n0) /. dt
  end

(* --- rendering --- *)

let mib bytes = float_of_int bytes /. (1024.0 *. 1024.0)

let spark_chars = [| ' '; '.'; ':'; '-'; '='; '+'; '*'; '#'; '%'; '@' |]

(* ASCII sparkline of the RSS curve, downsampled to [width] columns. *)
let rss_sparkline ?(width = 48) m =
  match List.rev m.rss_curve with
  | [] -> None
  | samples ->
    let arr = Array.of_list (List.map snd samples) in
    let n = Array.length arr in
    let cols = Stdlib.min width n in
    let lo = Array.fold_left Stdlib.min arr.(0) arr in
    let hi = Array.fold_left Stdlib.max arr.(0) arr in
    let buf = Buffer.create cols in
    for c = 0 to cols - 1 do
      (* max over the samples this column covers *)
      let i0 = c * n / cols and i1 = Stdlib.max (c * n / cols) (((c + 1) * n / cols) - 1) in
      let v = ref arr.(i0) in
      for i = i0 to i1 do
        if arr.(i) > !v then v := arr.(i)
      done;
      let frac = if hi = lo then 1.0 else float_of_int (!v - lo) /. float_of_int (hi - lo) in
      let idx =
        Stdlib.min (Array.length spark_chars - 1)
          (int_of_float (frac *. float_of_int (Array.length spark_chars - 1) +. 0.5))
      in
      Buffer.add_char buf spark_chars.(idx)
    done;
    Some (lo, hi, Buffer.contents buf)

let fbest m =
  if Float.is_nan m.best then "-"
  else if m.best = Float.infinity then "+inf"
  else if m.best = Float.neg_infinity then "-inf"
  else Printf.sprintf "%.4f" m.best

let render ?(width = 72) ?calls_budget m =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n') fmt in
  line "ABONN live monitor  %s%s"
    (Option.value ~default:"(engine pending)" m.engine)
    (match m.instance with Some i -> "  " ^ i | None -> "");
  line "%s" (String.make (Stdlib.min width 72) '-');
  line "elapsed %8.1fs   events %8d   status %s" m.t_last m.events
    (match m.verdict with
     | Some v -> v ^ (if m.finished then "" else " (engine)")
     | None -> "running");
  let nps = nodes_per_sec m in
  line "nodes %8d   calls %8d   depth %4d   frontier %6d   %8.1f nodes/s"
    m.nodes m.calls m.max_depth m.frontier nps;
  if m.domains > 0 then line "domains %6d" m.domains;
  line "best reward %s" (fbest m);
  (match calls_budget with
   | Some budget when nps > 0.0 && not m.finished ->
     let remaining = Stdlib.max 0 (budget - m.calls) in
     line "budget ETA  %.1fs (%d of %d calls left)"
       (float_of_int remaining /. nps) remaining budget
   | _ -> ());
  (* phase split: unnested span time against the capacity so far *)
  let cells = Spans.cells m.spans in
  let time prefix =
    snd
      (Spans.total
         (fun k -> (not k.nested) && String.starts_with ~prefix k.phase)
         cells)
  in
  let appver = time "appver." and lp = time "lp." and attack = time "attack." in
  let total = Float.max (Spans.capacity ~wall:m.t_last ~domains:m.domains) 1e-9 in
  let search = Float.max 0.0 (total -. appver -. lp -. attack) in
  line "";
  line "phase split     appver %5.1f%%   lp %5.1f%%   attack %5.1f%%   search %5.1f%%"
    (100.0 *. appver /. total)
    (100.0 *. lp /. total)
    (100.0 *. attack /. total)
    (100.0 *. search /. total);
  (* memory *)
  (match m.last_sample with
   | Some
       (Event.Resource_sample
          { rss_bytes; heap_bytes; minor_gcs; major_gcs; cpu; _ }) ->
     line "memory          rss %8.1f MiB   heap %8.1f MiB   gc %d/%d   cpu %.1fs"
       (mib rss_bytes) (mib heap_bytes) minor_gcs major_gcs cpu
   | _ -> ());
  (match rss_sparkline m with
   | Some (lo, hi, spark) ->
     line "rss curve       [%.1f, %.1f] MiB  |%s|" (mib lo) (mib hi) spark
   | None -> ());
  (* depth histogram *)
  if m.max_depth > 0 || m.depth_hist.(0) > 0 then begin
    line "";
    line "depth histogram";
    let vmax =
      float_of_int (Array.fold_left Stdlib.max 1 m.depth_hist)
    in
    for d = 0 to m.max_depth do
      let n = if d < Array.length m.depth_hist then m.depth_hist.(d) else 0 in
      if n > 0 then
        line "  %4d %6d %s" d n (Table.bar ~width:36 (float_of_int n) vmax)
    done
  end;
  Buffer.contents buf
