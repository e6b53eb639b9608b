type t = {
  emit : Event.envelope -> unit;
  close : unit -> unit;
}

let memory () =
  let events = ref [] in
  ( { emit = (fun env -> events := env :: !events); close = (fun () -> ()) },
    fun () -> List.rev !events )

let callback f = { emit = f; close = (fun () -> ()) }

(* Live tails (abonn_trace watch) read the file while it is still being
   written, so the JSONL sinks flush eagerly: on every run/engine
   terminator and resource heartbeat, plus at least once per second of
   trace time between them — a live reader never waits more than a
   second (or one event) behind the verifier, and never sees a
   truncated final record. *)
let jsonl_emit oc =
  let last_flush = ref 0.0 in
  fun env ->
    output_string oc (Event.to_json env);
    output_char oc '\n';
    match env.Event.event with
    | Event.Run_finished _ | Event.Verdict_reached _ | Event.Resource_sample _
      ->
      last_flush := env.Event.t;
      flush oc
    | _ ->
      if env.Event.t -. !last_flush >= 1.0 then begin
        last_flush := env.Event.t;
        flush oc
      end

let jsonl_channel oc = { emit = jsonl_emit oc; close = (fun () -> flush oc) }

let jsonl_file path =
  let oc = open_out path in
  let closed = ref false in
  { emit = jsonl_emit oc;
    close =
      (fun () ->
        if not !closed then begin
          closed := true;
          close_out oc
        end) }

(* --- flight recorder ------------------------------------------------ *)

type flight = {
  capacity : int;
  slots : Event.envelope option array;
  mutable next : int;  (* total ring writes; next mod capacity is the slot *)
  mutable kept : Event.envelope list;  (* terminators, newest first *)
}

(* Run brackets and terminators are what a post-mortem reader needs to
   orient itself (segment boundaries, final verdicts); they are retained
   out-of-band so no amount of chatter between them can evict them. *)
let is_terminator = function
  | Event.Run_started _ | Event.Run_finished _ | Event.Verdict_reached _ -> true
  | _ -> false

let flight ?(capacity = 4096) () =
  let fl =
    { capacity = max 1 capacity;
      slots = Array.make (max 1 capacity) None;
      next = 0;
      kept = [] }
  in
  let emit env =
    if is_terminator env.Event.event then fl.kept <- env :: fl.kept
    else begin
      fl.slots.(fl.next mod fl.capacity) <- Some env;
      fl.next <- fl.next + 1
    end
  in
  ({ emit; close = (fun () -> ()) }, fl)

(* A dump can race the emitting thread (signal handlers fire between
   instructions); each slot holds an immutable envelope pointer, so the
   worst case is one torn-in-time snapshot — never a torn record.  The
   seq sort restores emission order across the wrap point. *)
let flight_events fl =
  let ring = ref [] in
  Array.iter (function Some env -> ring := env :: !ring | None -> ()) fl.slots;
  List.sort
    (fun a b -> compare a.Event.seq b.Event.seq)
    (List.rev_append fl.kept !ring)

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
  end

let flight_dump fl path =
  mkdir_p (Filename.dirname path);
  let oc = open_out path in
  List.iter
    (fun env ->
      output_string oc (Event.to_json env);
      output_char oc '\n')
    (flight_events fl);
  close_out oc
