(** Static verification of exported telemetry documents
    ({!Core.Telemetry} JSON: [{meta, metrics, events}]).

    The central check is span discipline over the event timeline:
    every [Begin] is closed by an [End] of the same category and name
    in properly nested (stack) order — the [phase.load]/[phase.run]
    markers and GC collection spans.  Rules:

    - [doc.io] / [doc.json] — unreadable or unparseable file;
    - [doc.shape] — not an object / no event list;
    - [doc.event] — an event that does not round-trip through
      {!Obs.Events.event_of_json};
    - [doc.phase-nesting] — End without Begin, interleaved spans, or
      a span never closed;
    - [doc.timestamps] — warning: the logical clock decreases. *)

val check_file : file:string -> Stream_check.expect * Finding.t list
(** Load, parse and verify one telemetry JSON document. *)
