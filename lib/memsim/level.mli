(** Policy-pluggable set-associative cache level.

    One level of a multi-level hierarchy: N sets of up to 32 ways
    with a replacement policy selected per level.  The block model —
    per-word valid bits, write-validate vs fetch-on-write, collector
    stores forced to fetch-on-write — matches {!Cache} exactly, so a
    1-way level and a direct-mapped {!Cache} make identical decisions
    on the same trace (a property the test suite checks).

    Replacement state is packed into per-set machine words: exact-LRU
    recency ranks (5-bit fields), Tree-PLRU tree bits, bit-PLRU (MRU)
    bits, or 2-bit QLRU ages.  There are no per-line timestamps and no
    unbounded tick counter.

    The QLRU variants are an interpretation of the reverse-engineered
    QLRU_H11_M1_Rx_Ux family from the CacheTrace/nanoBench work on
    Intel L3 policies — hit promotion H11, insertion age M1, R0/R1
    victim tie-break, U0/U2 aging — not a cycle-exact model of any
    particular part. *)

type policy =
  | Lru                  (** exact least-recently-used *)
  | Tree_plru            (** tree pseudo-LRU; ways must be a power of two *)
  | Mru                  (** bit-PLRU ("MRU" in the CacheTrace tables) *)
  | Qlru_h11_m1_r1_u2    (** QLRU, highest-index age-3 victim, eager aging *)
  | Qlru_h11_m1_r0_u0    (** QLRU, lowest-index age-3 victim, lazy aging *)

val policy_code : policy -> int
(** Stable small-int encoding used by snapshots. *)

val policy_label : policy -> string
val policy_of_label : string -> policy option
val all_policies : policy list

type config = {
  size_bytes : int;   (** total capacity; a multiple of [block_bytes * ways]
                          such that the set count is a power of two *)
  block_bytes : int;  (** power of two, 4–256 *)
  ways : int;         (** associativity, 1–32 *)
  policy : policy;
  write_miss_policy : Cache.write_miss_policy;
  collector_fetch_on_write : bool;
}

val config :
  ?policy:policy ->
  ?write_miss_policy:Cache.write_miss_policy ->
  ?collector_fetch_on_write:bool ->
  size_bytes:int ->
  block_bytes:int ->
  ways:int ->
  unit ->
  config
(** Defaults: LRU, write-validate, collector fetch-on-write. *)

type t

val create : config -> t
(** @raise Invalid_argument on unsupported geometry: a non-power-of-two
    block or set count, ways outside 1..32, or a non-power-of-two way
    count under Tree-PLRU. *)

val geometry : t -> config
val num_sets : t -> int
val num_ways : t -> int

val set_fill_hook :
  t ->
  on_fetch:(int -> Trace.phase -> unit) ->
  on_writeback:(int -> Trace.phase -> unit) ->
  unit
(** Observe refill traffic: [on_fetch addr phase] for every block
    fetch, [on_writeback addr phase] for every dirty eviction, fired
    in exactly that order within one access.  Installing hooks forces
    {!access_chunk} onto the per-event path and makes
    {!access_chunk_emit} invalid — hooks are how the hooked
    differential oracle chains levels. *)

val access : t -> int -> Trace.kind -> Trace.phase -> unit
(** One access; semantics of {!Cache.access} plus replacement. *)

val write_back : t -> int -> Trace.phase -> unit
(** Install a whole block written back from the level above: counts a
    reference and a write, never fetches, leaves the block valid and
    dirty.  How a level receives write-backs from the level above. *)

val sink : t -> Trace.sink

val access_chunk : t -> Chunk.buf -> int -> int -> unit
(** Deliver packed events ({!Chunk} codec).  Kind code 3 — unused by
    recordings — is consumed as a {!write_back} of the word's block,
    so a miss stream produced by {!access_chunk_emit} can be drained
    through the next level with this function.  Hook-free levels take
    a fused counter-hoisted loop; hooked levels fall back to the
    per-event path so hook order is exact.
    @raise Invalid_argument when the range is out of bounds. *)

val access_chunk_emit :
  t -> Chunk.buf -> int -> int -> out:Chunk.buf -> pos:int -> int
(** [access_chunk_emit t buf off len ~out ~pos] is {!access_chunk}
    that also appends the level's miss stream to [out] starting at
    [pos], returning the position after the last appended word.  Per
    input event at most two words are appended — the victim
    write-back (kind code 3), then the block fetch (kind code 0) — in
    exactly the order the per-event hooks would have fired, which is
    what makes draining the stream through the next level equivalent
    to the hooked per-event hierarchy.
    @raise Invalid_argument when the range is out of bounds, when
    [out] has fewer than [2 * len] words after [pos], or when fill
    hooks are installed. *)

val stats : t -> Cache.stats
(** Same counters as the direct-mapped cache. *)

val reset_stats : t -> unit

val line_valid : t -> set:int -> way:int -> bool
(** Whether the line currently holds a block (test introspection). *)

(** {1 Model-checking hooks}

    Read-only views of one set's simulation state, exposed for the
    exhaustive policy model checker ([tools/policy_check]) and the
    policy unit tests.  The packed replacement-metadata encoding they
    reveal is the one documented at the top of [level.ml]: 5-bit LRU
    rank fields, one Tree-PLRU/MRU word, 2-bit QLRU ages.  None of
    these are simulation paths — they allocate freely and bounds-check
    their arguments. *)

val policy_words : t -> set:int -> int array
(** Copy of the packed replacement-metadata words of [set] ([pstride]
    words; the checker decodes them against its reference spec).
    @raise Invalid_argument on an out-of-range set. *)

val line_tag : t -> set:int -> way:int -> int
(** The memory-block number resident in the line, or [-1] when the
    line is invalid.  @raise Invalid_argument on out-of-range
    coordinates. *)

val line_dirty : t -> set:int -> way:int -> bool
(** Whether the line is dirty (would write back on eviction).
    @raise Invalid_argument on out-of-range coordinates. *)

val line_valid_words : t -> set:int -> way:int -> int * int
(** The line's per-word valid masks [(lo, hi)] — bit [w] of [lo] is
    word [w] for words 0–31, of [hi] for words 32–63.
    @raise Invalid_argument on out-of-range coordinates. *)

val victim_preview : t -> set:int -> int
(** The way {!access} would fill on a miss in [set] right now.  QLRU
    normalization may age the set, exactly as a real miss would; meant
    for property tests, not simulation. *)

val snapshot : t -> Buffer.t -> unit
(** Append the complete simulation state — geometry header, counters,
    tags, valid masks, dirty bits, packed policy words — to [buf];
    restoring it continues a replay bit-identically.  Hooks are
    wiring, not state, and are not captured. *)

val snapshot_bytes : t -> int

val restore : t -> Bytes.t -> int -> int
(** [restore t src pos] loads a snapshot written by {!snapshot} from
    [src] at [pos], returning the position after it.
    @raise Invalid_argument on a truncated, foreign, or
    geometry-mismatched snapshot. *)
