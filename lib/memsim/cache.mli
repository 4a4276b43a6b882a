(** Direct-mapped, virtually-indexed data cache (§4 of the paper).

    The cache models the design space the paper considers: one level,
    direct-mapped, block size equal to the fetch size, and a write-miss
    policy of either {e write-validate} (write-allocate with one-word
    sub-blocks: a write miss validates just the written word and fetches
    nothing) or {e fetch-on-write} (every miss fetches the whole block).

    Write-validate is modeled faithfully with a per-word valid bitmask:
    a read of a word that has neither been written nor fetched misses
    even when the block's tag matches.

    Two miss-related quantities are kept distinct:

    - {e misses}: accesses that did not hit (used for miss ratios and
      the §7 activity analysis);
    - {e fetches}: block transfers from main memory (the quantity that
      stalls the processor and is multiplied by the miss penalty).

    Under fetch-on-write the two coincide; under write-validate, write
    misses are misses but not fetches.

    Dirty blocks are tracked so that write-back traffic can be reported
    (§5's "write overheads"). *)

type write_miss_policy =
  | Write_validate
  | Fetch_on_write

val write_miss_label : write_miss_policy -> string
(** ["write-validate"] or ["fetch-on-write"]: the one spelling used by
    the CLI, manifests (whose content hashes cover it), profiles and
    error messages. *)

val write_miss_of_label : string -> write_miss_policy option
(** Inverse of {!write_miss_label}. *)

type config = {
  size_bytes : int;       (** total capacity; power of two *)
  block_bytes : int;      (** block/fetch size; power of two, 4–256 *)
  write_miss_policy : write_miss_policy;
  collector_fetch_on_write : bool;
      (** when true, accesses in the {!Trace.Collector} phase use
          fetch-on-write regardless of [write_miss_policy], as in the
          §6 footnote *)
  record_block_stats : bool;
      (** when true, per-cache-block reference/miss counters are kept
          for the §7 activity analysis *)
}

val config :
  ?write_miss_policy:write_miss_policy ->
  ?collector_fetch_on_write:bool ->
  ?record_block_stats:bool ->
  size_bytes:int ->
  block_bytes:int ->
  unit ->
  config
(** Configuration with the paper's defaults: write-validate,
    fetch-on-write during collection, no per-block stats. *)

type t

val create : config -> t
(** Fresh, empty cache.

    @raise Invalid_argument if sizes are not powers of two, the block
    is larger than the cache, smaller than a word, or wider than 64
    words (the valid-mask width). *)

val geometry : t -> config
val num_blocks : t -> int

val access : t -> int -> Trace.kind -> Trace.phase -> unit
(** Simulate one word access at the given byte address. *)

val access_chunk : t -> Chunk.buf -> int -> int -> unit
(** [access_chunk t buf off len] simulates the [len] packed events
    at [buf.(off..off+len-1)] (the {!Chunk} codec), equivalent to
    decoding each and calling {!access} in order.  When the cache has
    no miss hook and no per-block statistics the inner loop skips hook
    checks and per-event closure dispatch entirely — the fast path of
    the sweep engine.
    @raise Invalid_argument when the range is out of bounds. *)

val access_chunk_attr :
  t -> Attr.cursor -> Attr.profile -> base:int -> Chunk.buf -> int -> int -> unit
(** [access_chunk_attr t cur prof ~base buf off len] is
    {!access_chunk} on the hook-free fast path, plus attribution: each
    event (recording-global index [base + i - off]) is classified
    against the side table behind [cur] and accounted into [prof]'s
    (region x phase) slots, site counters and miss-heat grid.  Cache
    state transitions and aggregate counters are identical to
    {!access_chunk}, and each per-counter sum over [prof]'s slots
    equals the aggregate counter delta exactly (write-backs are
    charged to the {e evicted} block's region under the map in force
    at eviction time).  Chunks may be skipped between calls (sampling):
    the cursor catches up forward.  One cursor and profile serve one
    cache; do not share them across domains.
    @raise Invalid_argument when the range is out of bounds, [base] is
    negative, or the cache has a miss hook or per-block stats (the
    attributed loop supports neither). *)

val sink : t -> Trace.sink
(** The cache as a trace consumer. *)

type stats = {
  refs : int;               (** mutator references *)
  collector_refs : int;
  misses : int;             (** mutator misses, allocation misses included *)
  collector_misses : int;
  alloc_misses : int;       (** mutator misses caused by initializing stores *)
  fetches : int;            (** mutator block fetches (penalized) *)
  collector_fetches : int;
  writebacks : int;         (** dirty blocks written back on eviction *)
  collector_writebacks : int;
      (** writebacks triggered by collector-phase evictions (included
          in [writebacks]) *)
  writes : int;             (** all word stores (write-through traffic) *)
  collector_writes : int;   (** collector-phase stores (included in [writes]) *)
}

val stats : t -> stats

val mutator_hits : stats -> int
(** [refs - misses]: mutator accesses that hit. *)

val collector_hits : stats -> int

val set_miss_hook : t -> (cache_block:int -> alloc:bool -> unit) -> unit
(** Install a callback invoked on every miss (any phase), after the
    miss has been counted.  [alloc] is true for mutator allocation
    misses.  Used by the miss-plot analyzer. *)

val block_refs : t -> int array
(** Per-cache-block mutator reference counts; requires
    [record_block_stats].  The returned array is a copy. *)

val block_misses : t -> int array
(** Per-cache-block mutator miss counts {e excluding} allocation
    misses, as in the §7 activity graphs.  Requires
    [record_block_stats]. *)

val block_alloc_misses : t -> int array
(** Per-cache-block allocation-miss counts; requires
    [record_block_stats]. *)

val reset_stats : t -> unit
(** Zero every counter (contents and tags are kept). *)

(** {1 Checkpointing}

    A snapshot captures the complete simulation state — tags, per-word
    valid masks, dirty bits, all counters, and per-block statistics
    when enabled — so that a restored cache continues a replay
    bit-identically.  The miss hook is wiring, not state, and is not
    captured.  The encoding is fixed-width little-endian, stable
    across runs and platforms with 63-bit ints. *)

val snapshot : t -> Buffer.t -> unit
(** Append the cache's state to the buffer ({!snapshot_bytes} bytes,
    beginning with a magic and the geometry for validation). *)

val snapshot_bytes : t -> int
(** Exact size of this cache's snapshot. *)

val restore : t -> Bytes.t -> int -> int
(** [restore t src pos] overwrites [t]'s state from the snapshot at
    [src.(pos..)] and returns the offset just past it.
    @raise Invalid_argument when the snapshot is truncated, corrupt,
    or was taken from a cache with a different configuration. *)
