module Event = Abonn_obs.Event

type issue =
  | Malformed of { line : int; msg : string }
  | Seq_gap of { line : int; expected : int; got : int }
  | Time_regression of { line : int; prev : float; got : float }

let issue_line = function
  | Malformed { line; _ } | Seq_gap { line; _ } | Time_regression { line; _ } -> line

let issue_to_string = function
  | Malformed { msg; _ } -> msg
  | Seq_gap { line; expected; got } ->
    Printf.sprintf "line %d: seq gap: expected %d, got %d" line expected got
  | Time_regression { line; prev; got } ->
    Printf.sprintf "line %d: time regression: %.6f after %.6f" line got prev

let fold_channel ?source ic ~init ~f =
  let issues = ref [] in
  let report i = issues := i :: !issues in
  let rec go acc line_no prev_seq prev_t =
    match input_line ic with
    | exception End_of_file -> acc
    | "" -> go acc (line_no + 1) prev_seq prev_t
    | line ->
      (match Event.of_json ?source ~line:line_no line with
       | Error msg ->
         report (Malformed { line = line_no; msg });
         go acc (line_no + 1) prev_seq prev_t
       | Ok env ->
         if env.Event.seq <> prev_seq + 1 then
           report (Seq_gap { line = line_no; expected = prev_seq + 1; got = env.Event.seq });
         if env.Event.t < prev_t then
           report (Time_regression { line = line_no; prev = prev_t; got = env.Event.t });
         go (f acc env) (line_no + 1) env.Event.seq (Float.max prev_t env.Event.t))
  in
  let acc = go init 1 0 neg_infinity in
  (acc, List.rev !issues)

let fold_file path ~init ~f =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  fold_channel ~source:path ic ~init ~f

let read_file path =
  let events, issues = fold_file path ~init:[] ~f:(fun acc env -> env :: acc) in
  (List.rev events, issues)

(* --- follow (tail) mode ---

   A live trace grows while we read it, and the writer's buffer can cut
   a line anywhere.  The tail keeps a raw fd plus the unterminated
   remainder of the last read: a line is only parsed once its '\n' has
   arrived, so a partially-written record is silently deferred to the
   next poll instead of reported as malformed.  Envelope invariants
   (seq, t) are carried across polls. *)

type tail = {
  source : string;
  fd : Unix.file_descr;
  chunk : Bytes.t;
  pending : Buffer.t;  (* bytes after the last '\n' seen so far *)
  mutable line_no : int;
  mutable prev_seq : int;
  mutable prev_t : float;
  mutable offset : int;  (* bytes consumed, including the pending tail *)
}

let tail_open ?(offset = 0) path =
  let fd =
    try Unix.openfile path [ Unix.O_RDONLY ] 0
    with Unix.Unix_error (e, _, _) ->
      raise (Sys_error (Printf.sprintf "%s: %s" path (Unix.error_message e)))
  in
  if offset > 0 then ignore (Unix.lseek fd offset Unix.SEEK_SET);
  { source = path;
    fd;
    chunk = Bytes.create 65536;
    pending = Buffer.create 256;
    line_no = 1;
    prev_seq = 0;
    prev_t = neg_infinity;
    offset }

let tail_offset t = t.offset

let tail_close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let tail_line t report f line =
  (match line with
   | "" -> ()
   | line ->
     (match Event.of_json ~source:t.source ~line:t.line_no line with
      | Error msg -> report (Malformed { line = t.line_no; msg })
      | Ok env ->
        if env.Event.seq <> t.prev_seq + 1 then
          report
            (Seq_gap { line = t.line_no; expected = t.prev_seq + 1; got = env.Event.seq });
        if env.Event.t < t.prev_t then
          report (Time_regression { line = t.line_no; prev = t.prev_t; got = env.Event.t });
        t.prev_seq <- env.Event.seq;
        t.prev_t <- Float.max t.prev_t env.Event.t;
        f env));
  t.line_no <- t.line_no + 1

(* Drain every complete line that has arrived since the last poll and
   hand it to [line] (with its 1-based line number); a final record cut
   mid-line by the writer's buffer stays in [pending] until its '\n'
   shows up on a later poll. *)
let tail_drain t ~line:deliver =
  let rec drain () =
    match Unix.read t.fd t.chunk 0 (Bytes.length t.chunk) with
    | 0 -> ()
    | n ->
      t.offset <- t.offset + n;
      for i = 0 to n - 1 do
        match Bytes.get t.chunk i with
        | '\n' ->
          let line = Buffer.contents t.pending in
          Buffer.clear t.pending;
          deliver line
        | c -> Buffer.add_char t.pending c
      done;
      drain ()
  in
  drain ()

let tail_poll t ~f =
  let issues = ref [] in
  let report i = issues := i :: !issues in
  tail_drain t ~line:(fun line -> tail_line t report f line);
  List.rev !issues

(* Raw-line variant for line-oriented files that are not event traces
   (the run registry among them): same partial-line deferral across
   polls, no envelope parsing or integrity checks.  Empty lines are
   skipped but still advance the line counter. *)
let tail_poll_lines t ~f =
  tail_drain t ~line:(fun line ->
      (match line with "" -> () | line -> f ~line_no:t.line_no line);
      t.line_no <- t.line_no + 1)
