(** Pluggable trace-event consumers.

    A sink receives every {!Event.envelope} emitted while it is installed
    (see {!Obs.install}).  Sinks must be cheap: they run synchronously on
    the verifier hot path whenever tracing is on. *)

type t = {
  emit : Event.envelope -> unit;
  close : unit -> unit;
      (** Flush and release resources.  Idempotent for the built-in
          sinks.  Closing does {e not} uninstall the sink. *)
}

val memory : unit -> t * (unit -> Event.envelope list)
(** In-memory sink for tests: the second component returns every
    envelope received so far, in emission order. *)

val callback : (Event.envelope -> unit) -> t
(** Wrap a plain function (used to re-express legacy trace callbacks as
    sinks).  [close] is a no-op. *)

val jsonl_channel : out_channel -> t
(** Write one JSON line per event to an existing channel.  Flushes on
    every [run_finished], [verdict_reached] and [resource_sample], and
    at least once per second of trace time otherwise, so live tail
    readers ([abonn_trace watch]) never see a truncated final record.
    [close] flushes but leaves the channel open (the caller owns it). *)

val jsonl_file : string -> t
(** Create/truncate [path] and write one JSON line per event, with the
    same eager-flush policy as {!jsonl_channel}; [close] flushes and
    closes the file. *)

(** {1 Flight recorder}

    A bounded in-memory ring that keeps the newest [capacity] events
    plus {e every} run bracket / terminator ([run_started],
    [run_finished], [verdict_reached]) out-of-band, so a hung or killed
    run can be dumped post-mortem.  Emission cost is one pattern match
    and one array store — cheap enough to leave on for every CLI run
    (see DESIGN.md §12). *)

type flight
(** Recorder state, shared between the installed sink and the dumper. *)

val flight : ?capacity:int -> unit -> t * flight
(** A ring-buffer sink holding the newest [capacity] (default 4096)
    non-terminator events.  Install the first component like any sink;
    pass the second to {!flight_events} / {!flight_dump}. *)

val flight_events : flight -> Event.envelope list
(** Snapshot of the recorder contents in emission (seq) order:
    all retained terminators plus the surviving ring window.  Safe to
    call from a signal handler racing the emitter — envelopes are
    immutable, so the worst case is a one-event-stale snapshot. *)

val flight_dump : flight -> string -> unit
(** Write {!flight_events} as JSONL (creating parent directories),
    readable by every [abonn_trace] command.  Overwrites [path]. *)
