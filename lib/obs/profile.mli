(** Presentation model for a cache-miss attribution profile.

    The simulator side ([Memsim.Attr]) accumulates flat counter arrays
    on the hot path; this module is the cooked, reporting-friendly form
    those arrays are folded into: named region × phase cells, a ranked
    allocation-site table, and a miss-density heatmap over
    (address space × simulated time).  It is pure data plus encoders —
    JSON for [repro profile], collapsed stacks for flamegraph tooling,
    and counter-track overlays for Chrome traces — and depends only on
    [obs] so every consumer (CLI, CI, tests) can render a profile
    without linking the simulator. *)

type cell = {
  region : string;       (** "static" | "stack" | "tospace" | "fromspace" | "free" *)
  phase : string;        (** "mutator" | "collector" *)
  refs : int;
  misses : int;
  alloc_misses : int;    (** misses on [Alloc_write] events (the §5 wave) *)
  fetches : int;         (** block fetches actually performed *)
  writebacks : int;      (** dirty evictions charged to the {e evicted} block's region *)
  writes : int;
}

type site = {
  site : string;         (** interned allocation-site name, e.g. "closure:loop" *)
  alloc_writes : int;    (** allocation-initializing stores charged to the site *)
  alloc_misses : int;    (** those stores that missed *)
}

type heat = {
  rows : int;            (** address buckets, low addresses first *)
  cols : int;            (** time buckets, trace order *)
  row_bytes : int;       (** simulated address bytes per row *)
  col_events : int;      (** trace events per column *)
  counts : int array;    (** misses, row-major [rows * cols] *)
}

type t = {
  workload : string;
  cache : string;        (** human-readable cache-configuration label *)
  events : int;          (** recording length the profile was replayed from *)
  sample_every : int;    (** 1 = full attribution; N = 1-in-N chunks attributed *)
  chunks_seen : int;
  chunks_attributed : int;
  events_attributed : int;
  cells : cell list;     (** every region × phase pair, fixed order *)
  sites : site list;     (** descending [alloc_misses], ties by name *)
  heat : heat;
  region_time : int array;
      (** per-column misses by region, row-major [heat.cols * 5] in
          region order static, stack, tospace, fromspace, free *)
}

val region_names : string array
(** [[|"static"; "stack"; "tospace"; "fromspace"; "free"|]] — mirrors
    [Memsim.Attr] region codes (duplicated; [obs] cannot depend on the
    simulator). *)

val total_misses : t -> int
(** Sum of [misses] over all cells. *)

val top_sites : t -> site list
(** The first five sites by [alloc_misses]. *)

val to_json : t -> Json.t
(** Stable schema: scalars, ["cells"], ["sites"], ["heat"]
    (with ["counts"] as rows of ints) and ["region_time"]. *)

val collapsed_stacks : t -> string
(** Flamegraph collapsed-stack lines, one per site with a nonzero
    weight: ["<workload>;<site> <alloc_misses>\n"].  Sites with zero
    misses but nonzero allocation writes are emitted with weight 0
    suppressed (omitted), keeping the fold focused on actual misses. *)

val overlay : t -> Events.timeline -> unit
(** Append one [Sample] event per (column, region) with nonzero
    misses, named ["miss.<region>"] in category ["profile"] with
    [ts = column * heat.col_events], so a Chrome/Perfetto export of the
    timeline gains per-region miss-rate counter tracks aligned with the
    GC lifecycle spans. *)
