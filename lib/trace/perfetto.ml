(* Chrome trace-event / Perfetto exporter: map the ABONN envelope +
   span events (docs/TRACE_SCHEMA.md section 1-2) onto the trace-event
   JSON array format so any trace opens in chrome://tracing, Perfetto UI
   or speedscope without bespoke tooling.

   Mapping:
   - the envelope [domain] tag becomes the thread id, so each OCaml
     domain renders as its own named track ("main" for untagged
     sequential events, "domain N" otherwise);
   - span events that carry [elapsed] (bound_computed, lp_solved,
     lp_warm, attack_tried, verdict_reached, run_finished) become
     complete ("X") events whose ts is rewound by their duration, the
     window [Spans] uses; every event is drawn as it is, so the
     exporter needs no nesting rule;
   - point events (selections, evaluations, frontier pops, decisions,
     bound_reuse, domain_summary) become thread-scoped instants ("i");
   - a row's args are its event's fields ([Event.fields]) less those
     the row already shows as its name, duration or track;
   - resource_sample becomes counter ("C") tracks for RSS/heap bytes,
     node totals and throughput.

   Timestamps are microseconds as the format requires.  The output is
   deterministic: event order follows the input, floats print with
   fixed formats, and metadata rows are sorted. *)

module Event = Abonn_obs.Event
module Json = Abonn_util.Json

let us t = t *. 1e6

type row = {
  ph : char;
  name : string;
  cat : string;
  ts : float;    (* microseconds *)
  dur : float;   (* microseconds; meaningful for 'X' rows only *)
  tid : int;
  args : (string * Json.t) list;
}

let rows_of_event env =
  let t = env.Event.t and event = env.Event.event in
  let tid = Option.value ~default:0 env.Event.domain in
  (* the event's own fields, less those the row already shows as its
     name, duration or track *)
  let args drop =
    List.filter (fun (k, _) -> not (List.mem k drop)) (Event.fields event)
  in
  let complete ?(cat = "span") name elapsed drop =
    [ { ph = 'X';
        name;
        cat;
        ts = us (Float.max 0.0 (t -. elapsed));
        dur = us (Float.max 0.0 elapsed);
        tid;
        args = args ("elapsed" :: "wall" :: drop) } ]
  in
  let instant ?(cat = "point") ?(tid = tid) ?(drop = []) () =
    [ { ph = 'i'; name = Event.name event; cat; ts = us t; dur = 0.0; tid;
        args = args drop } ]
  in
  let counter name args =
    [ { ph = 'C'; name; cat = "resource"; ts = us t; dur = 0.0; tid; args } ]
  in
  match event with
  | Event.Run_started _ -> instant ~cat:"run" ()
  | Event.Run_finished { engine; wall; _ } ->
    complete ~cat:"run" ("run:" ^ engine) wall [ "engine" ]
  | Event.Verdict_reached { engine; elapsed; _ } ->
    complete ~cat:"run" ("run:" ^ engine) elapsed [ "engine" ]
  | Event.Bound_computed { appver; elapsed; _ } ->
    complete ("appver:" ^ appver) elapsed [ "appver" ]
  | Event.Lp_solved { elapsed; _ } -> complete "lp" elapsed []
  | Event.Lp_warm { elapsed; _ } -> complete "lp_warm" elapsed []
  | Event.Attack_tried { attack; elapsed; _ } ->
    complete ("attack:" ^ attack) elapsed [ "attack" ]
  | Event.Node_selected _ | Event.Node_evaluated _ | Event.Backprop _
  | Event.Frontier_pop _ | Event.Exact_leaf _ ->
    instant ()
  | Event.Bound_reuse _ -> instant ~cat:"cache" ()
  | Event.Resource_sample { rss_bytes; heap_bytes; open_nodes; nodes; nps; _ } ->
    counter "memory_bytes" [ ("rss", Int rss_bytes); ("heap", Int heap_bytes) ]
    @ counter "nodes" [ ("total", Int nodes); ("open", Int open_nodes) ]
    @ counter "nodes_per_sec" [ ("nps", Float nps) ]
  | Event.Domain_summary { domain; _ } ->
    (* describes [domain]'s whole run: pin it to that domain's track *)
    instant ~cat:"par" ~tid:domain ~drop:[ "domain" ] ()
  | Event.Ucb_decision _ | Event.Branch_decision _ | Event.Frontier_decision _ ->
    instant ~cat:"decision" ()

let row_to_json ~pid r =
  let buf = Buffer.create 128 in
  Buffer.add_string buf
    (Printf.sprintf "{\"name\":%s,\"cat\":%s,\"ph\":\"%c\",\"ts\":%.3f"
       (Json.to_string (Str r.name)) (Json.to_string (Str r.cat)) r.ph r.ts);
  if r.ph = 'X' then Buffer.add_string buf (Printf.sprintf ",\"dur\":%.3f" r.dur);
  Buffer.add_string buf (Printf.sprintf ",\"pid\":%d,\"tid\":%d" pid r.tid);
  if r.ph = 'i' then Buffer.add_string buf ",\"s\":\"t\"";
  if r.args <> [] then begin
    Buffer.add_string buf ",\"args\":";
    Json.add buf (Obj r.args)
  end;
  Buffer.add_char buf '}';
  Buffer.contents buf

let metadata_rows ~pid tids =
  let meta name tid label =
    Json.to_string
      (Obj
         [ ("name", Str name); ("ph", Str "M"); ("pid", Int pid); ("tid", Int tid);
           ("args", Obj [ ("name", Str label) ]) ])
  in
  meta "process_name" 0 "abonn"
  :: List.map
       (fun tid ->
         meta "thread_name" tid
           (if tid = 0 then "main" else Printf.sprintf "domain %d" tid))
       tids

let to_string events =
  let pid = 1 in
  let rows = List.concat_map rows_of_event events in
  let tids =
    List.sort_uniq compare (0 :: List.map (fun r -> r.tid) rows)
  in
  let buf = Buffer.create 65536 in
  Buffer.add_string buf "{\"traceEvents\":[\n";
  let all = metadata_rows ~pid tids @ List.map (row_to_json ~pid) rows in
  List.iteri
    (fun i line ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf line)
    all;
  Buffer.add_string buf "\n],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.contents buf
