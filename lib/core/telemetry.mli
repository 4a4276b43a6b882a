(** Per-run telemetry aggregation.

    A [Telemetry.t] couples the process-wide metrics registry (reset
    and enabled on [create]) with a fresh event timeline.  Hand the
    timeline to {!Runner.record} (or a machine config) so the VM and
    collector publish GC lifecycle events to it; after the run, record
    the machine and cache statistics and export everything as one JSON
    document: [{meta, metrics, events}]. *)

type t

val create : ?timeline:Obs.Events.timeline -> unit -> t
(** Resets and enables {!Obs.Metrics.default}; [timeline] (default a
    fresh one) becomes the exported event timeline — pass the result
    of {!of_recording} when replaying a saved trace. *)

val timeline : t -> Obs.Events.timeline

val set_meta : t -> string -> Obs.Json.t -> unit
(** Attach a [meta] field (workload name, cache geometry, ...). *)

val record_cache : t -> ?name:string -> Memsim.Cache.stats -> unit
(** Publish per-phase cache counters as
    [<name>.{mutator,collector}.{refs,misses,hits,fetches,writebacks,writes}]
    (plus [mutator.alloc_misses]).  [name] defaults to ["cache"]; pass
    ["l1"]/["l2"] when exporting a hierarchy. *)

val record_hier : t -> ?name:string -> Memsim.Hier.t -> unit
(** Publish every level of a hierarchy via {!record_cache} as
    [<name>.l1], [<name>.l2], ...; [name] defaults to ["hier"]. *)

val record_run : t -> Runner.result -> unit
(** Publish run statistics ([run.*] counters, workload/collector meta)
    and collector-specific extras (write-barrier hits, SSB overflows,
    mark-sweep free storage) selected by the machine's collector. *)

val record_runner : t -> unit
(** Publish {!Runner.counters}: the process's VM runs, trace-memo
    reuses and kept-trace evictions so far. *)

val to_json : t -> Obs.Json.t
(** [{ "meta": {...}, "metrics": {...}, "events": [...] }]. *)

val observe_gc_pauses : t -> unit
(** Fold every completed ["gc.collection"] span on the timeline into
    the ["gc.pause_refs"] histogram (log-spaced buckets of collector
    references per collection), so exports carry p50/p90/p99 pause
    figures.  Call once, after the run (or after {!of_recording}). *)

val of_recording : Memsim.Recording.t -> Obs.Events.timeline
(** Reconstruct a coarse timeline from a saved access trace: each
    maximal run of collector-phase references becomes a
    ["gc.collection"] span whose timestamps are trace-event indices,
    closed with the span's reference count. *)
