(** The [repro profile] pipeline: run (or load) a workload trace with
    its attribution side table, replay it through a cache grid with
    {!Memsim.Sweep.run_attributed}, and cook the flat accumulators
    into {!Obs.Profile.t} values ready for JSON, collapsed-stack and
    heatmap output. *)

val capture :
  ?gc:Vscheme.Machine.gc_spec ->
  ?heap_bytes:int ->
  ?scale:int ->
  Workloads.Workload.t ->
  Runner.result * Memsim.Recording.t * Memsim.Attr.table * int
(** Run the workload once with the fast-path recorder and a fresh
    attribution table attached ({!Runner.record} with [?attr]).
    Returns the run result, the recording, the captured table and the
    simulated address-space size in bytes (the heat grid's address
    range). *)

val cook :
  workload:string ->
  cache:string ->
  events:int ->
  Memsim.Attr.table ->
  Memsim.Attr.profile ->
  Obs.Profile.t
(** Fold one flat accumulator into the presentation model: named
    (region x phase) cells in fixed order, the site table ranked by
    descending allocation misses (sites with no allocation activity
    are dropped), and the heat grids with their bucket widths made
    explicit. *)

val profile_recording :
  ?jobs:int ->
  ?sample_every:int ->
  ?heat_rows:int ->
  ?heat_cols:int ->
  workload:string ->
  addr_limit:int ->
  caches:Memsim.Level.config list ->
  Memsim.Attr.table ->
  Memsim.Recording.t ->
  Obs.Profile.t list
(** Attributed replay of a quiescent recording through one cache per
    configuration, cooked per cache in order.  [jobs] defaults to
    {!Runner.jobs}[ ()]; sampling and grid parameters as
    {!Memsim.Sweep.run_attributed}. *)
