(** Fan-out simulation of one trace through many cache configurations.

    Trace-driven simulation is dominated by producing the trace, so a
    single program run is shared by every cache configuration under
    study.  There is one engine and one replay driver: a grid cell is
    a one-level {!Hier} over a {!Level} (1-way for the paper's
    direct-mapped grids), so grids and multi-level hierarchy fleets
    replay, checkpoint and resume through the same [hier_*] path.
    Hierarchies whose leading levels have equal configurations and
    equal state share those levels' simulation (see below), and a
    sealed recording is read-only, so serial, parallel and resumed
    runs are bit-identical to replaying each hierarchy alone.  A
    trace is recorded first and replayed afterwards; nothing sweeps
    while the mutator runs.

    - {!sink}: per-event fan-out (one {!Level.access} per cell per
      event).  The oracle the others are tested against.
    - {!hier_run_serial} / {!hier_run_parallel} over {!hiers}: replay
      a completed {!Recording}, whole prefix trees of hierarchies
      claimed across [jobs] domains by {!parallel_for}; unshared
      direct-mapped cells are claimed two at a time and replayed in
      one pass ({!Level.access_chunk2}). *)

val paper_cache_sizes : int list
(** The §4 cache sizes: 32 KB to 4 MB in powers of two. *)

val paper_block_sizes : int list
(** The §4 block sizes: 16, 32, 64, 128, 256 bytes. *)

val kb : int -> int
(** [kb n] is [n * 1024]. *)

val mb : int -> int
(** [mb n] is [n * 1024 * 1024]. *)

val pp_size : Format.formatter -> int -> unit
(** Print a byte count the way the paper labels axes: ["64k"], ["2m"].
    Quarter-megabyte multiples print fractionally (["1.5m"]); byte
    counts that are not multiples of 1024 print exactly (["1536b"])
    rather than under a misleading unit. *)

type t

val create : Level.config list -> t
(** One single-level hierarchy per configuration, in order. *)

val grid :
  ?write_miss_policy:Cache.write_miss_policy ->
  cache_sizes:int list ->
  block_sizes:int list ->
  unit ->
  Level.config list
(** The cross product of the given sizes as direct-mapped (1-way LRU)
    configurations with the paper's defaults. *)

val sink : t -> Trace.sink
(** Deliver each event to every cell, one event at a time. *)

val hiers : t -> Hier.t array
(** The cells as one-level hierarchies, in configuration order: what
    the [hier_*] replay, checkpoint and resume functions take. *)

val results : t -> (Level.config * Cache.stats) list

(** {1 Replaying a recording} *)

val parallel_for : jobs:int -> int -> (int -> unit) -> unit
(** [parallel_for ~jobs n f] runs [f 0], ..., [f (n - 1)], each exactly
    once, on up to [jobs] domains (the caller's included; clamped to
    [1 .. n]) that claim indices off one atomic cursor.  [f i] must
    touch only state that belongs to index [i]; results then do not
    depend on [jobs].  An exception from [f] reaches the caller only
    after every domain has joined, so no worker is still running when
    the caller handles it; if several raise, one is re-raised. *)

(** {1 Attributed replay} *)

val run_attributed :
  ?jobs:int ->
  ?sample_every:int ->
  addr_limit:int ->
  t ->
  Attr.table ->
  Recording.t ->
  Attr.profile array
(** Like {!hier_run_parallel} over {!hiers} (with [jobs] defaulting
    to 1) but through {!Level.access_chunk_attr}: returns one
    {!Attr.profile} per cell, in configuration order, attributing
    misses, fetches, writes and write-backs by (region x phase),
    allocation site and (address x time) heat bucket against the side
    [table] captured with the recording.  Cells are replayed two per
    pass ({!Level.access_chunk_attr2}); each profile equals the one a
    one-cell sweep of that cell returns.  Line contents and aggregate
    statistics are bit-identical to {!hier_run_serial}.
    [sample_every] attributes only every Nth chunk (the rest replay
    through the plain fast path, so aggregate statistics are still
    exact); [addr_limit] is the simulated memory size in bytes, used
    to scale the heat grid ({!Attr.profile_create}'s default 32x64).
    @raise Invalid_argument as {!Level.access_chunk_attr} (every cell
    must be direct-mapped), or when [sample_every < 1]. *)

(** {1 Hierarchy replay, checkpoint and resume}

    The one replay path, over fused hierarchies ({!Hier}) — a grid's
    cells ({!hiers}) or multi-level fleets alike.

    Each shared hierarchy prefix is simulated once.  When a replay
    range starts, the hierarchies are grouped into prefix trees: level
    i of two hierarchies shares a tree node when their levels i-1
    share one and the two levels are {!Level.same} (equal
    configuration, line state and counters).  A node simulates its
    first member's level once per chunk and feeds that level's miss
    stream to each child; when the range ends, the other members'
    levels receive its state through {!Level.copy}.  A level's future
    depends only on its configuration, its state and the stream it
    receives, so per-level statistics, snapshots and checkpoints are
    bit-identical to replaying each hierarchy alone, which is what a
    one-hierarchy array does.  The five {!Hier.preset}s share one L1
    and two L2s: 7 level simulations instead of 15.  Each tree is one
    claim of {!parallel_for}, so parallel and resumable runs are
    bit-identical to serial ones, per level.

    The hierarchies should be fused ([Hier.create ~fused:true]); the
    hooked oracle exists for differential tests, never shares a level,
    and replays alone.

    A long replay can be snapshotted periodically — the full state of
    every hierarchy ({!Hier.snapshot}) plus the number of events all
    of them have consumed — so that a killed sweep resumes from the
    last checkpoint {e bit-identically} to a run that was never
    interrupted.  Checkpoints are ["SWHCKPT1"] files written
    atomically (temp file + rename): a crash mid-write leaves the
    previous checkpoint, never a torn one. *)

val hier_run_serial : Hier.t array -> Recording.t -> unit
(** Replay the whole recording into every hierarchy, one domain. *)

val hier_run_parallel : jobs:int -> Hier.t array -> Recording.t -> unit
(** Like {!hier_run_serial} with the prefix trees dynamically claimed
    across [jobs] domains (clamped to the hierarchy count); a fleet
    whose hierarchies all share an L1 is one tree and runs on one
    domain. *)

val save_hier_checkpoint :
  Hier.t array -> events:int -> cursor:int -> string -> unit
(** [save_hier_checkpoint hiers ~events ~cursor path] writes the state
    of every level of every hierarchy (tags, valid masks, dirty bits,
    packed policy words, counters) and the replay position: all
    hierarchies have consumed exactly the first [cursor] of the
    recording's [events] events. *)

val load_hier_checkpoint :
  ?ctx:string -> Hier.t array -> events:int -> string -> int
(** Restore every hierarchy from a checkpoint and return its cursor.
    @raise Failure when the file is not a hierarchy checkpoint (a
    retired ["SWPCKPT1"] grid checkpoint included), was taken over a
    recording of a different length, or its snapshots do not match
    the hierarchies (count, geometry, or line state no access could
    produce — located by file byte offset); [ctx] prefixes the
    message as in {!find}. *)

val hier_run_resumable :
  ?ctx:string ->
  ?jobs:int ->
  ?checkpoint_every:int ->
  ?progress:(int -> unit) ->
  checkpoint:string ->
  Hier.t array ->
  Recording.t ->
  unit
(** Like {!hier_run_parallel} ([jobs] defaults to 1), but
    fault-tolerant: if [checkpoint] exists the hierarchies are
    restored from it and replay continues at its cursor; the
    recording is then consumed in epochs of [checkpoint_every] events
    (default 4 Mi) with a fresh checkpoint written after each.
    Per-level statistics are bit-identical to an uninterrupted serial
    run regardless of how many times the process died and resumed,
    and of [jobs].
    [progress] is called with the cursor after the restore and after
    every epoch.  The final checkpoint (cursor = event count) is left
    on disk; remove it to start over.
    @raise Failure as {!load_hier_checkpoint} on a stale or foreign
    checkpoint file. *)
