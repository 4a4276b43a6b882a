(** Golden fixtures: the committed reference outputs of one manifest
    run, and the comparator the CI gate is built on.

    A fixture pins two classes of quantity:

    - {e exact counts} — machine counters (references, instructions,
      collections, bytes allocated), the trace's event count and
      on-disk byte size, and every per-cache counter
      ({!Memsim.Cache.stats}).  The simulator is deterministic, so
      these must match bit-for-bit; any drift is a behaviour change.
    - {e derived ratios} — miss ratios and §5 cache-overhead
      percentages, compared within a relative tolerance band of 1e-9, so a
      reformulation of the arithmetic (or a different FMA contraction)
      does not fail the gate while a real regression does.

    Mismatches are reported as {!Check.Finding.t}s naming the run, the
    geometry and the field, with expected and actual values. *)

type cache_result = {
  size_bytes : int;
  block_bytes : int;
  stats : Memsim.Cache.stats;
  miss_ratio : float;
  collector_miss_ratio : float;
  overhead_slow : float;        (** O_cache on the 30 ns/cycle CPU *)
  overhead_fast : float;        (** O_cache on the 2 ns/cycle CPU *)
}

type t = {
  run : Manifest.run;
  value : string;               (** the workload's printed result *)
  refs : int;
  collector_refs : int;
  instructions : int;
  collector_instructions : int;
  collections : int;
  bytes_allocated : int;
  trace_events : int;
  trace_bytes : int;            (** size of the trace saved in [run.trace_format] *)
  caches : cache_result list;   (** in grid order *)
}

val measure :
  ?ctx:string ->
  ?checkpoint:string ->
  ?checkpoint_every:int ->
  ?progress:(int -> unit) ->
  Manifest.run ->
  t
(** Lease the workload's trace ({!Core.Runner.with_lease}: recorded, or
    replayed from the trace memo when this process holds it), sweep
    the manifest grid over it (with [run.jobs] worker domains), and
    size the trace as {!Memsim.Recording.saved_bytes} in
    [run.trace_format].  The lease is released when the measurement
    returns or raises.  With [checkpoint], the sweep goes through
    {!Memsim.Sweep.hier_run_resumable} (grid cells are one-level
    hierarchies): the replay snapshots every [checkpoint_every] events and, when the
    checkpoint file already exists, resumes from it bit-identically —
    the trace itself is leased again, re-recorded if it was evicted,
    which is free of drift because the simulator is deterministic.  [progress] observes the replay
    cursor after the restore and after every epoch; raising from it
    abandons the measurement (the serve scheduler uses this for
    cancellation and for its kill-injection tests).  [ctx] prefixes
    error messages (the serve scheduler passes the job id and
    manifest name, so a surfaced error locates the job).
    @raise Failure on an unknown workload name. *)

val compare :
  file:string -> expected:t -> actual:t -> unit -> Check.Finding.t list
(** Every disagreement as an error finding: rule [golden.run] when the
    two were measured under different manifest entries, [golden.value]
    / [golden.count] for exact quantities, [golden.ratio] for derived
    ratios outside the band, [golden.grid] when a geometry is missing
    from [actual]. *)

val to_datum : t -> Sexp.Datum.t
val of_datum : file:string -> Sexp.Datum.t -> t
(** @raise Sx.Parse_error on malformed input. *)

val save : t -> string -> unit
val load : string -> t
(** @raise Sx.Parse_error on I/O or parse errors. *)
