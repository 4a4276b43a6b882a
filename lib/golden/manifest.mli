(** Golden-run manifests.

    A manifest pins everything that determines a golden run's numbers:
    the workload and scale, the collector, the heap, the cache-grid
    geometry and write policy, the worker-domain count used for the
    sweep (results are parallelism-invariant; recorded for
    provenance), and the on-disk trace format whose byte size the
    fixture pins.  The simulator is deterministic, so two runs of the
    same manifest entry on any machine produce identical fixtures. *)

type run = {
  name : string;           (** fixture file stem, e.g. ["lred-cheney"] *)
  workload : string;       (** a {!Workloads.Workload} name *)
  scale : int;
  gc : Vscheme.Machine.gc_spec;
  heap_bytes : int option; (** [None]: the runner default (48 MB × REPRO_SCALE) *)
  cache_sizes : int list;
  block_sizes : int list;
  write_miss_policy : Memsim.Cache.write_miss_policy;
  jobs : int;
  trace_format : Memsim.Recording.format;
  hier : Memsim.Hier.cpu option;
      (** [Some cpu]: replay through the fused 3-level {!Memsim.Hier}
          preset instead of the cache grid — the fixture's cache
          entries become the per-level counters and
          [cache_sizes]/[block_sizes] are ignored (conventionally
          empty).  Serialized only when present, so pre-hierarchy
          manifests and fixtures round-trip byte-identically. *)
}

type t = {
  version : int;
  runs : run list;
}

val current_version : int

val default : t
(** The committed smoke suite: all five workloads at scale 1 under a
    Cheney collector sized to force several collections, over a 2×2
    corner of the paper grid, plus one no-GC control run and one run
    through the fused Coffee Lake 3-level hierarchy. *)

val run_to_datum : run -> Sexp.Datum.t
val run_of_datum : file:string -> Sexp.Datum.t -> run
(** The [(run ...)] form, shared with fixtures (which embed the run
    they were measured under). *)

val content_hash : run -> string
(** Hex digest of the canonical encoding of the quantities that
    determine a run's numbers: the result-cache key of the serve
    scheduler.  The encoding re-serializes the parsed record, so
    source field order, whitespace and elided defaults cannot affect
    it, and it leaves out [name] (a label) and [jobs] (results are
    parallelism-invariant).  Two runs share a hash exactly when they
    are the same measurement; renaming a run or changing its worker
    count does not change its hash. *)

val save : t -> string -> unit
val load : string -> t
(** @raise Sx.Parse_error on I/O or parse errors. *)
