(** Streaming reader over JSONL traces (docs/TRACE_SCHEMA.md).

    Real trace files get truncated, concatenated and hand-edited, so the
    reader never aborts on a bad line: it skips it, records an {!issue},
    and keeps going.  Envelope invariants that the writer guarantees
    (gap-free [seq], monotone [t]) are checked on the way through and
    violations are reported as issues too — a quick integrity check for
    any trace of unknown provenance. *)

type issue =
  | Malformed of { line : int; msg : string }
      (** The line failed to parse; [msg] is [Event.of_json]'s
          [FILE:LINE:COL] diagnostic. *)
  | Seq_gap of { line : int; expected : int; got : int }
      (** [seq] is not the predecessor's successor (1 for the first
          event).  Signals truncation or file concatenation. *)
  | Time_regression of { line : int; prev : float; got : float }
      (** [t] decreased — impossible for a trace written by
          [Abonn_obs.Obs] (monotonised clock). *)

val issue_line : issue -> int
(** 1-based line number the issue was found at. *)

val issue_to_string : issue -> string

val fold_channel :
  ?source:string ->
  in_channel -> init:'a -> f:('a -> Abonn_obs.Event.envelope -> 'a) -> 'a * issue list
(** Consume every line of the channel.  [f] sees well-formed envelopes
    in file order; blank lines are skipped silently.  Issues come back
    in line order; [source] names the channel in malformed-line
    diagnostics. *)

val fold_file :
  string -> init:'a -> f:('a -> Abonn_obs.Event.envelope -> 'a) -> 'a * issue list
(** [fold_channel] over [open_in path]; the channel is closed even if
    [f] raises.  Raises [Sys_error] if the file cannot be opened. *)

val read_file : string -> Abonn_obs.Event.envelope list * issue list
(** Whole trace in memory, in file order. *)

(** {1 Follow (tail) mode}

    Incremental reading of a trace that is still being written
    (powers [abonn_trace watch]).  A partially-written line — the
    writer's buffer can cut a record anywhere — is never reported as
    malformed: its bytes are buffered and the line is parsed on a later
    poll, once its terminating newline has arrived.  The seq/t
    integrity checks of {!fold_channel} run across polls. *)

type tail

val tail_open : ?offset:int -> string -> tail
(** Open [path] for tailing, optionally resuming [offset] bytes in
    (e.g. a {!tail_offset} saved from an earlier tail).  Raises
    [Sys_error] if the file cannot be opened. *)

val tail_poll : tail -> f:(Abonn_obs.Event.envelope -> unit) -> issue list
(** Consume every complete line appended since the last poll, calling
    [f] on each well-formed envelope; returns the new issues (line
    order).  Non-blocking in the sense that it stops at end-of-file
    rather than waiting for more data. *)

val tail_poll_lines : tail -> f:(line_no:int -> string -> unit) -> unit
(** Raw-line variant of {!tail_poll} for line-oriented files that are
    not event traces (the run registry among them): delivers every
    complete non-empty line appended since the last poll with its
    1-based line number, with the same partial-line deferral across
    polls, and no envelope parsing or seq/t integrity checks.  Do not
    mix with {!tail_poll} on the same tail: both consume the stream. *)

val tail_offset : tail -> int
(** Bytes consumed so far (including any buffered partial line). *)

val tail_close : tail -> unit
