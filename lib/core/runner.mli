(** Run workloads on instrumented machines.

    One call builds a fresh vscheme machine that records its reference
    trace, loads the prelude and the workload, runs it, and returns
    the run's vital statistics with the recording.  Loading is part
    of the measured run, as in the paper (programs were measured
    "together with the T system itself"). *)

type 'machine outcome = {
  workload : Workloads.Workload.t;
  scale : int;
  value : string;          (** printed result value, for checking *)
  refs : int;              (** mutator data references *)
  collector_refs : int;
  stats : Vscheme.Machine.run_stats;
  machine : 'machine;
}

type result = Vscheme.Machine.t outcome
(** A fresh production's outcome, with the machine after the run, for
    layout queries. *)

type summary = unit outcome
(** A run served through the trace memo ({!lease}), which keeps no
    machine. *)

val base_scale : Workloads.Workload.t -> int
(** Per-workload scale that yields roughly 8–10 million references —
    the default experiment size.  Multiply by the harness scale
    factor for longer runs. *)

val scale_factor : unit -> int
(** The harness-wide multiplier, from the [REPRO_SCALE] environment
    variable (default 1). *)

val jobs : unit -> int
(** Worker domains for parallel sweeps: the last {!set_jobs} value,
    else the [REPRO_JOBS] environment variable, else 1 (serial — the
    oracle). *)

val set_jobs : int -> unit
(** Override {!jobs} (clamped to at least 1); the CLI's [--jobs]. *)

val layout : Vscheme.Machine.t -> dynamic_base:bool -> int
(** Byte address of an area boundary of the machine: with
    [dynamic_base] true, the start of the dynamic area, else the
    start of the stack area. *)

val record :
  ?gc:Vscheme.Machine.gc_spec ->
  ?heap_bytes:int ->
  ?pathological_layout:bool ->
  ?events:Obs.Events.timeline ->
  ?scale:int ->
  ?direct:bool ->
  ?attr:Memsim.Attr.table ->
  Workloads.Workload.t ->
  result * Memsim.Recording.t
(** Run a workload to completion and capture its full reference trace
    — the one way a workload is run, the trace-once-replay-many
    workflow: every consumer (cache sweeps, hierarchies, the §7
    analyzers) replays the recording afterwards.  The recording costs
    8 host bytes per reference in memory (much less on disk with
    {!Memsim.Recording.save}'s default v2 format); whoever replays it
    last calls {!Memsim.Recording.release}.  Every call is a fresh
    production that the caller owns: it never reads or fills the
    trace memo ({!lease}).

    [scale] defaults to [base_scale w * scale_factor ()].
    [pathological_layout] selects the stack-aliasing static layout of
    experiment A2.  [events], when given, becomes the machine's
    telemetry timeline (GC lifecycle events) and additionally receives
    [phase.load] / [phase.run] markers around workload loading and
    execution.

    With [direct] true (the default) the memory appends packed events
    straight into the recording slabs, no per-event closure, and the
    mutator/collector reference split comes from its phase-flip
    counters.  [~direct:false] is the differential-test oracle: the
    machine's sink is {!Memsim.Recording.sink} and the split is
    counted from the phase bits of the recording it wrote.  Both paths
    yield bit-identical recordings and counts.

    [attr], when given, is kept in step with the run: the heap
    publishes region-map epochs and the VM stamps allocation sites
    into it, keyed by recording position (see {!Memsim.Attr}).
    @raise Invalid_argument when [attr] is given with [~direct:false]. *)

(** {1 Trace memo}

    The paper's method is to capture a trace once and feed it to many
    simulators.  {!lease} does that across a process: the first lease
    of a run records it and keeps the recording in the slab pool
    ({!Memsim.Recording.keep}); later leases of the same run replay
    the kept trace until the pool evicts it to make room for a new
    production. *)

val lease :
  ?gc:Vscheme.Machine.gc_spec ->
  ?heap_bytes:int ->
  ?pathological_layout:bool ->
  ?scale:int ->
  Workloads.Workload.t ->
  summary * Memsim.Recording.t
(** {!record}'s run and trace through the memo, keyed on every input
    that reaches the VM: workload, scale and heap size (after
    [REPRO_SCALE]), collector and layout.  The heap size is in the key
    even for collected runs.  The recording is a read-only lease on
    the kept trace; release it with {!Memsim.Recording.release} when
    done.  Domains that miss the same key at once each record it.
    Runs with [events], [attr] or [~direct:false] go through
    {!record}. *)

val with_lease :
  ?gc:Vscheme.Machine.gc_spec ->
  ?heap_bytes:int ->
  ?pathological_layout:bool ->
  ?scale:int ->
  Workloads.Workload.t ->
  (summary -> Memsim.Recording.t -> 'a) ->
  'a
(** [with_lease w f] is [f] on {!lease}'s run and recording, releasing
    the lease however [f] ends, so a raising consumer leaves no kept
    trace pinned. *)

val counters : unit -> (string * int) list
(** [runner.productions] (VM runs, {!record} and {!lease} misses
    alike), [runner.reuses] ({!lease} hits) and [runner.evictions]
    (kept traces the pool reclaimed), since the process began. *)

val sweep_recording :
  ?label:string -> Memsim.Sweep.t -> Memsim.Recording.t -> unit
(** Replay a recording into a sweep grid with
    {!Memsim.Sweep.run_parallel}[ ~jobs:(]{!jobs}[ ())] (one job is
    the serial loop).  Publishes [<label>.{wall_s,jobs,events,
    events_per_s,consumer_events_per_s}] gauges ([label] defaults to
    ["sweep"]) to {!Obs.Metrics.default} so exported telemetry tracks
    sweep wall time and throughput; [consumer_events_per_s] duplicates
    [events_per_s] under the name that pairs with {!record_grid}'s
    [producer_events_per_s] for the producer-gap gauge. *)

(** {1 Sharded domain-parallel producer} *)

type cell
(** One unit of trace production: a workload plus its collector, heap,
    layout and scale options, and an optional metrics label. *)

val cell :
  ?gc:Vscheme.Machine.gc_spec ->
  ?heap_bytes:int ->
  ?pathological_layout:bool ->
  ?scale:int ->
  ?label:string ->
  Workloads.Workload.t ->
  cell
(** Build a {!cell}; the options default exactly as in {!record}. *)

val record_grid :
  ?jobs:int -> cell list -> (summary * Memsim.Recording.t) array
(** {!lease} every cell, sharding the independent runs across a pool
    of [jobs] domains (default {!jobs}[ ()], clamped to the cell
    count).  A single VM run is inherently serial, so the whole cell
    is the unit of parallelism: each domain claims cells off an atomic
    cursor and leases each, recording a cell the memo does not hold
    into its own fresh machine and recording.  The returned array —
    indexed in input order — is bit-for-bit identical to recording the
    cells one after another serially, for any [jobs].  Release every
    recording when done.  If a cell raises, the cells already leased
    are released before the first exception is re-raised.

    For each labelled cell, publishes
    [<label>.{produce_wall_s,jobs,events,producer_events_per_s}]
    gauges to {!Obs.Metrics.default} (from the calling domain only,
    after all workers have joined); [produce_wall_s] covers the whole
    production of that cell's trace — machine creation, load, and the
    traced run — also when the memo served it. *)
