(** Policy-pluggable set-associative cache level: the simulator
    behind every cache in the reproduction.

    One level is N sets of up to 32 ways with a replacement policy
    selected per level.  With one way it is the cache of §4 of the
    paper, a direct-mapped, virtually-indexed data cache; sweep grids
    are 1-way levels, and {!Hier} chains levels into hierarchies.

    The block model covers the design space the paper considers:
    block size equal to the fetch size, and a write-miss policy of
    either {e write-validate} (write-allocate with one-word
    sub-blocks: a write miss validates just the written word and
    fetches nothing) or {e fetch-on-write} (every miss fetches the
    whole block).  Write-validate is modeled faithfully with a
    per-word valid bitmask: a read of a word that has neither been
    written nor fetched misses even when the block's tag matches.

    Two miss-related quantities are kept distinct:

    - {e misses}: accesses that did not hit (used for miss ratios and
      the §7 activity analysis);
    - {e fetches}: block transfers from main memory (the quantity that
      stalls the processor and is multiplied by the miss penalty).

    Under fetch-on-write the two coincide; under write-validate, write
    misses are misses but not fetches.  Dirty blocks are tracked so
    that write-back traffic can be reported (§5's "write overheads").

    The chunk entry points pick their loop from the geometry alone: a
    1-way level runs a direct-indexed loop with no way scan, any
    other level the set-associative one.  Both leave exactly the
    state and counters the per-event {!access} leaves.

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

val policy_label : policy -> string
val all_policies : policy list

type config = {
  size_bytes : int;   (** total capacity; a multiple of [block_bytes * ways]
                          such that the set count is a power of two *)
  block_bytes : int;  (** power of two, 4–256 *)
  ways : int;         (** associativity, 1–32 *)
  policy : policy;
  write_miss_policy : Cache.write_miss_policy;
      (** the mutator's; accesses in the {!Trace.Collector} phase
          always use fetch-on-write, as in the §6 footnote *)
}

val config :
  ?policy:policy ->
  ?write_miss_policy:Cache.write_miss_policy ->
  size_bytes:int ->
  block_bytes:int ->
  ways:int ->
  unit ->
  config
(** Defaults: LRU, write-validate. *)

type t

val create : config -> t
(** Fresh, empty level.
    @raise Invalid_argument on unsupported geometry: a block that is
    not a power of two, smaller than a word or wider than 64 words (the
    valid-mask width), a size that is not a multiple of the block, a
    non-power-of-two set count, ways outside 1..32, or a
    non-power-of-two way count under Tree-PLRU. *)

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
(** Simulate one word access at the given byte address: the block
    model above plus the policy's promote or fill.  The per-event
    oracle the chunk loops are tested against. *)

val write_back : t -> int -> Trace.phase -> unit
(** Install a whole block written back from the level above: counts a
    reference and a write, never fetches, leaves the block valid and
    dirty.  How a level receives write-backs from the level above. *)

val sink : t -> Trace.sink

val access_chunk : t -> Chunk.buf -> int -> int -> unit
(** [access_chunk t buf off len] simulates the [len] packed events at
    [buf.(off..off+len-1)] ({!Chunk} codec), equivalent to decoding
    each and calling {!access} in order.  Kind code 3 — unused by
    recordings — is consumed as a {!write_back} of the word's block,
    so a miss stream produced by {!access_chunk_emit} can be drained
    through the next level with this function.  Hook-free levels take
    a fused counter-hoisted loop (direct-indexed at one way); hooked
    levels fall back to the per-event path so hook order is exact.
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

val access_chunk_attr :
  t -> Attr.cursor -> Attr.profile -> base:int -> Chunk.buf -> int -> int -> unit
(** [access_chunk_attr t cur prof ~base buf off len] is {!access_chunk}
    on a direct-mapped level, plus attribution: each event
    (recording-global index [base + i - off]) is classified against
    the side table behind [cur] and accounted into [prof]'s
    (region x phase) slots, site counters and miss-heat grid.  Line
    state transitions and aggregate counters are identical to
    {!access_chunk}, and each per-counter sum over [prof]'s slots
    equals the aggregate counter delta exactly (write-backs are
    charged to the {e evicted} block's region under the map in force
    at eviction time).  The events must be recorded ones (kind codes
    0–2), not a miss stream.  Chunks may be skipped between calls
    (sampling): the cursor catches up forward.  One cursor and
    profile serve one level; do not share them across domains.
    @raise Invalid_argument when the range is out of bounds, [base] is
    negative, the level has more than one way, or fill hooks are
    installed. *)

val stats : t -> Cache.stats
(** The level's counters. *)

val reset_stats : t -> unit
(** Zero every counter (contents, tags and policy state are kept). *)

(** {1 Prefix sharing}

    A level's behaviour is a function of its configuration, its state
    and the ordered stream it receives.  Two {!same} levels fed the
    same stream therefore end {!same}, so a replay may simulate one
    and {!copy} it into the other ([Sweep] does this for hierarchies
    that share a prefix). *)

val same : t -> t -> bool
(** Equal configuration, counters, tags, valid masks, dirty bits and
    packed policy words: everything {!snapshot} captures.  A level
    with fill hooks is never [same] as another: a replay that skipped
    it would skip its hooks. *)

val copy : src:t -> t -> unit
(** [copy ~src dst] makes [dst] {!same} as [src]: line state, policy
    words and counters.  Hooks are left as they are.
    @raise Invalid_argument when the configurations differ. *)

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
    [src] at [pos], returning the position after it.  Nothing is
    loaded unless every line is one an access could have produced.
    @raise Invalid_argument on a truncated, foreign, or
    geometry-mismatched snapshot, and — naming the byte offset in
    [src] — on a tag below the [-1] invalid marker, a valid tag filed
    in a set its low bits do not index, a block resident in two ways
    of one set, valid bits beyond the block, or a dirty byte other
    than 0 or 1. *)
