(** Chrome trace-event / Perfetto exporter.

    Maps the ABONN envelope + span events (docs/TRACE_SCHEMA.md
    sections 1-2) onto the JSON trace-event format understood by
    chrome://tracing, the Perfetto UI and speedscope: the envelope
    [domain] tag becomes a named thread track, events carrying
    [elapsed] become complete ("X") spans with their timestamp rewound
    by the duration (the window {!Spans} uses; nothing is nested or
    merged here), point events become thread-scoped instants and
    [resource_sample] becomes counter tracks (RSS/heap, node totals,
    throughput).  Every row's [args] are its event's
    {!Abonn_obs.Event.fields}, less those the row shows as its name,
    duration or track. *)

val to_string : Abonn_obs.Event.envelope list -> string
(** The whole trace as one JSON document ({v {"traceEvents":[...]} v}),
    timestamps in microseconds.  Deterministic and byte-stable: event
    order follows the input and floats print with fixed formats. *)
