(* Live-run view behind [abonn_trace watch] and the [--progress]
   heartbeat: the current run's model ([Summary], reset when a new run
   starts) plus what only a live view needs: a recent-window node rate,
   the phase split so far (a [Spans] model, so nested spans count once)
   and the resource (memory) curve. *)

module Event = Abonn_obs.Event
module Sink = Abonn_obs.Sink
module Table = Abonn_util.Table

type t = {
  mutable run : Summary.t;  (* the current run *)
  mutable runs : int;  (* harness runs finished so far *)
  mutable t_last : float;
  spans : Spans.t;  (* the phase split, nesting resolved *)
  window : (float * int) Queue.t;  (* (t, nodes) for the recent node rate *)
  mutable rss_curve : (float * int) list;  (* (t, rss_bytes), newest first *)
  mutable last_sample : Event.t option;  (* latest Resource_sample payload *)
}

let create () =
  { run = Summary.create ();
    runs = 0;
    t_last = 0.0;
    spans = Spans.create ();
    window = Queue.create ();
    rss_curve = [];
    last_sample = None }

let window_seconds = 5.0
let rss_curve_cap = 512

let note_nodes m t nodes =
  Queue.push (t, nodes) m.window;
  while
    (not (Queue.is_empty m.window))
    && fst (Queue.peek m.window) < t -. window_seconds
  do
    ignore (Queue.pop m.window)
  done

let feed m env =
  if Summary.starts m.run env then m.run <- Summary.create ();
  Summary.feed m.run env;
  m.t_last <- env.Event.t;
  Spans.feed m.spans env;
  match env.Event.event with
  | Event.Run_finished _ -> m.runs <- m.runs + 1
  | Event.Resource_sample { rss_bytes; _ } as s ->
    m.last_sample <- Some s;
    m.rss_curve <-
      (env.Event.t, rss_bytes)
      :: (if List.length m.rss_curve >= rss_curve_cap then
            List.filteri (fun i _ -> i < rss_curve_cap - 1) m.rss_curve
          else m.rss_curve)
  | ev ->
    if Summary.progress ev then note_nodes m env.Event.t (Summary.run m.run).Summary.nodes

let finished m = Summary.closed m.run

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

let fbest v =
  if Float.is_nan v then "-"
  else if v = Float.infinity then "+inf"
  else if v = Float.neg_infinity then "-inf"
  else Printf.sprintf "%.4f" v

let render ?(width = 72) ?calls_budget m =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n') fmt in
  let r = Summary.run m.run in
  line "ABONN live monitor  %s%s"
    (if r.Summary.engine = "?" then "(engine pending)" else r.Summary.engine)
    (match r.Summary.instance with Some i -> "  " ^ i | None -> "");
  line "%s" (String.make (Stdlib.min width 72) '-');
  line "elapsed %8.1fs   events %8d   status %s" m.t_last r.Summary.events
    (match r.Summary.verdict with
     | Some v -> v ^ (if finished m then "" else " (engine)")
     | None -> "running");
  let nps = nodes_per_sec m in
  line "nodes %8d   calls %8d   depth %4d   frontier %6d   %8.1f nodes/s"
    r.Summary.nodes r.Summary.calls r.Summary.max_depth r.Summary.frontier nps;
  if r.Summary.domains > 0 then line "domains %6d" r.Summary.domains;
  line "best reward %s" (fbest r.Summary.best_reward);
  (match calls_budget with
   | Some budget when nps > 0.0 && not (finished m) ->
     let remaining = Stdlib.max 0 (budget - r.Summary.calls) in
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
  let total =
    Float.max (Spans.capacity ~wall:m.t_last ~domains:r.Summary.domains) 1e-9
  in
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
  (* visit depth profile *)
  let counts = r.Summary.depth_counts in
  if Array.exists (fun n -> n > 0) counts then begin
    line "";
    line "depth histogram";
    let vmax = float_of_int (Array.fold_left Stdlib.max 1 counts) in
    Array.iteri
      (fun d n ->
        if n > 0 then line "  %4d %6d %s" d n (Table.bar ~width:36 (float_of_int n) vmax))
      counts
  end;
  Buffer.contents buf

(* --- the --progress heartbeat --- *)

let progress ?(out = stderr) ?(every = 2.0) () =
  (* A non-positive cadence would reprint on every event; clamp to a
     sane minimum instead of spinning the terminal. *)
  let every = if every <= 0.0 then 0.1 else every in
  (* A line is (re)printed at most once per [every] seconds of trace
     time, carriage-return overwritten in place.  [close] finishes with
     a newline so the next shell prompt starts clean. *)
  let m = create () in
  let last_print = ref neg_infinity and started = ref false and dirty = ref false in
  let print t =
    let r = Summary.run m.run in
    started := true;
    dirty := false;
    last_print := t;
    output_char out '\r';
    output_string out
      (Printf.sprintf "[%8.1fs] calls=%d nodes=%d depth=%d best=%s%s" t r.Summary.calls
         r.Summary.nodes r.Summary.max_depth (fbest r.Summary.best_reward)
         (if m.runs > 0 then Printf.sprintf " runs=%d" m.runs else ""));
    flush out
  in
  { Sink.emit =
      (fun env ->
        feed m env;
        dirty := true;
        if env.Event.t -. !last_print >= every then print env.Event.t);
    close =
      (fun () ->
        if !started then begin
          (* events arrived since the last heartbeat: print the final
             aggregate so the line the user is left with is complete *)
          if !dirty then print m.t_last;
          output_char out '\n';
          flush out
        end) }
