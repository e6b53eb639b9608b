type row = {
  phase : string;
  depth : int;  (** BaB-tree depth; [-1] when the phase carries none *)
  layer : int;  (** warm-start layer ([0] = cold); [-1] = not applicable *)
  calls : int;
  seconds : float;
}

type t = {
  engine : string;
  wall : float;
  domains : int;
  overhead : float;  (** capacity not attributed to any row *)
  rows : row list;  (** sorted by [seconds], descending *)
}

let of_events events =
  let run = Summary.of_events events in
  let rows =
    List.filter_map
      (fun { Spans.key = { phase; depth; layer; nested }; calls; seconds } ->
        if nested then None else Some { phase; depth; layer; calls; seconds })
      (Spans.of_events events)
    |> List.stable_sort (fun a b -> compare b.seconds a.seconds)
  in
  let attributed = List.fold_left (fun acc r -> acc +. r.seconds) 0.0 rows in
  let capacity = Spans.capacity ~wall:run.Summary.wall ~domains:run.Summary.domains in
  { engine = run.Summary.engine;
    wall = run.Summary.wall;
    domains = run.Summary.domains;
    overhead = Float.max 0.0 (capacity -. attributed);
    rows }

let to_string ?(limit = 30) h =
  let buf = Buffer.create 1024 in
  let capacity = Spans.capacity ~wall:h.wall ~domains:h.domains in
  let pct s = if capacity > 0.0 then 100.0 *. s /. capacity else 0.0 in
  Buffer.add_string buf
    (Printf.sprintf "hotspots  engine=%s wall=%.6f s%s (%d rows)\n" h.engine
       h.wall (Spans.domains_suffix h.domains) (List.length h.rows));
  Buffer.add_string buf
    (Printf.sprintf "  %4s %-24s %6s %6s %8s %12s %7s %7s\n" "rank" "phase"
       "depth" "layer" "calls" "seconds" "wall" "cum");
  let cum = ref 0.0 in
  List.iteri
    (fun i r ->
      if i < limit then begin
        cum := !cum +. r.seconds;
        let cell v = if v >= 0 then string_of_int v else "-" in
        Buffer.add_string buf
          (Printf.sprintf "  %4d %-24s %6s %6s %8d %12.6f %6.1f%% %6.1f%%\n"
             (i + 1) r.phase (cell r.depth) (cell r.layer) r.calls r.seconds
             (pct r.seconds) (pct !cum))
      end)
    h.rows;
  if List.length h.rows > limit then
    Buffer.add_string buf
      (Printf.sprintf "  ... %d more rows (raise --limit)\n"
         (List.length h.rows - limit));
  Buffer.add_string buf
    (Printf.sprintf "  %4s %-24s %6s %6s %8s %12.6f %6.1f%%\n" "" "(overhead)"
       "-" "-" "" h.overhead (pct h.overhead));
  Buffer.contents buf

(* Folded-stack output (flamegraph.pl / speedscope / inferno): one line
   per row, semicolon-separated frames, integer sample weight in µs. *)
let to_flame h =
  let buf = Buffer.create 1024 in
  let us s = Stdlib.max 1 (int_of_float (Float.round (s *. 1e6))) in
  List.iter
    (fun r ->
      if r.seconds > 0.0 || r.calls > 0 then begin
        Buffer.add_string buf h.engine;
        Buffer.add_char buf ';';
        Buffer.add_string buf r.phase;
        if r.depth >= 0 then
          Buffer.add_string buf (Printf.sprintf ";depth_%d" r.depth);
        if r.layer >= 0 then
          Buffer.add_string buf (Printf.sprintf ";layer_%d" r.layer);
        Buffer.add_string buf (Printf.sprintf " %d\n" (us r.seconds))
      end)
    h.rows;
  if h.overhead > 0.0 then
    Buffer.add_string buf
      (Printf.sprintf "%s;overhead %d\n" h.engine (us h.overhead));
  Buffer.contents buf
