(** Trace recording and replay.

    Producing a trace (running the Scheme system) costs far more than
    consuming one, so a recorded trace lets new cache configurations,
    analyzers or policies be evaluated without re-running the program
    — the classic trace-driven-simulation workflow the paper used
    (traces captured once by the MIPS emulator, then fed to the
    simulator).

    Events are packed one per native int (61-bit byte address, 2-bit
    kind, 1-bit phase — the {!Chunk} codec), so a recording costs 8
    host bytes per reference in memory.  Storage is a list of
    fixed-size off-heap slabs ({!Chunk.buf}): appending never copies
    already-recorded events, the GC never scans trace contents, and
    the slabs are exposed as ready-made chunks ({!iter_chunks}) for
    {!Level.access_chunk} and the domain-parallel sweep, which share a
    completed recording across domains without copying.

    Two producers can fill a recording: the generic {!sink}, and a
    {e direct writer} ({!checkout}/{!seal_full}/{!set_tail}) — a hot
    loop that owns the current slab and cursor and appends with unsafe
    Bigarray stores, going out of line only when a slab fills.
    [Vscheme.Mem]'s trace fast path is the direct writer; both
    producers yield bit-identical recordings.

    On disk, recordings are saved in format v2 by default — a
    delta+varint encoding exploiting the sequential allocation sweeps
    of §7, typically 3–6x smaller than a fixed 8 bytes per event.
    Format v3 trades that compression for zero-cost loading: the
    payload is the slab representation verbatim, and {!load} maps it
    with [Unix.map_file] so the sweep consumes the file pages in
    place.  {!load} reads both, transparently; it refuses a file of
    the retired fixed-stride v1 format by its magic.

    Slab memory has an owner.  Default-size slabs
    ({!Chunk.default_chunk_events}) are drawn from a process-wide
    free pool before any fresh allocation, and {!release} returns a
    finished recording's slabs to it; the pool is safe to use from
    several domains at once.  Whoever reads a recording for the last
    time releases it, or clears it to record again into the same
    recording; {!clear} pools the sealed slabs just as {!release}
    does.  A recording nobody releases or clears is reclaimed by the
    GC's Bigarray finalizers.

    The pool also holds {e kept traces}: finished recordings that a
    process may replay again ({!keep}, {!lease}).  A kept trace stays
    until a producer finds the free list empty; that producer then
    evicts the least recently leased kept trace that no lease pins
    before it allocates a fresh slab.  Kept traces so occupy only
    memory the pool already holds, and there is no size knob. *)

type t

type format =
  | V2  (** zigzag address delta + kind/phase tag, LEB128 varint *)
  | V3  (** mmap-native: fixed 8-byte stride, loaded zero-copy *)

val format_label : format -> string
(** ["v2"] or ["v3"]: the one spelling used by the CLI, manifests
    (whose content hashes cover it) and messages. *)

val format_of_label : string -> format option
(** Inverse of {!format_label}. *)

val create : ?initial_capacity:int -> unit -> t
(** An empty recording.  [initial_capacity] (clamped to at least 16,
    default {!Chunk.default_chunk_events}) is the event capacity of
    each internal slab. *)

val sink : t -> Trace.sink
(** Append every event to the recording.
    @raise Invalid_argument while a direct writer has the recording
    checked out. *)

val length : t -> int
(** Number of recorded events.  While a direct writer is active this
    excludes its unsynced tail; see {!set_tail}. *)

val chunk_events : t -> int
(** Slab capacity.  A v3 file {!load} maps is one slab as long as the
    trace. *)

val clear : t -> unit
(** Drop every recorded event and release any direct-writer checkout:
    the sealed slabs go back to the pool as in {!release}, and the
    current slab is kept, so the recording stays writable and is
    reusable afterwards.  The same rule as for {!release} applies: no
    reader may touch [t]'s old events or a buffer {!iter_chunks} gave
    out from it again.  A memory-mapped recording pools nothing; it is
    left empty and read-only.
    @raise Invalid_argument on a lease ({!lease}). *)

val release : t -> unit
(** Hand every slab [t] owns back to the pool and leave [t] empty:
    {!length} is 0 and a later append or {!checkout} raises
    [Invalid_argument], as on a mapped recording.  Call it once no
    reader will touch [t] or any buffer {!iter_chunks} gave out from
    it again — the slabs are rewritten by the next recording.  A
    recording {!load} memory-mapped owns no slab and pools nothing;
    releasing twice is harmless.  Releasing a lease unpins its kept
    trace and leaves the trace in the pool. *)

(** {1 Kept traces}

    A kept trace is a sealed recording filed in the pool under a key,
    with a {!note} from its keeper.  Readers take {e leases} on it: a
    lease is a recording that reads the kept trace's slabs in place
    and pins it, so no eviction reclaims them while it is read.
    Several leases, on several domains, may read one trace at once.
    A lease refuses {!clear}, {!checkout} and appends with
    [Invalid_argument]; {!release} ends it. *)

type note = ..
(** What a keeper files beside a kept trace (the run that produced
    it, say); keepers extend the type with their own constructor. *)

val keep : key:string -> note -> t -> unit
(** [keep ~key note t] files the finished recording [t] as a kept
    trace under [key] and turns [t] into a lease on it: [t] reads the
    same events as before, read-only, until it is released.  A key
    filed twice keeps both traces; {!lease} finds the more recently
    used.
    @raise Invalid_argument on a lease. *)

val lease : string -> (t * note) option
(** A new lease on the kept trace filed under the key, with its note,
    or [None] if no trace is kept under it (never filed, or evicted).
    The trace becomes the most recently leased. *)

type pool_stats = {
  free_slabs : int;   (** default-size slabs on the free list *)
  kept_traces : int;
  evictions : int;    (** kept traces evicted since the process began *)
}

val pool_stats : unit -> pool_stats

(** {1 Direct writer}

    The fast-path protocol: [checkout] hands the caller the current
    slab and write cursor; the caller appends packed events (the
    {!Chunk} codec) with plain stores and bumps its own cursor copy.
    When the cursor reaches {!chunk_events}, call {!seal_full} and
    continue at 0 in the fresh slab it returns.  Before anything reads
    the recording, publish the cursor with {!set_tail}, and end the
    checkout with {!checkin}.  While checked out, {!sink}/appends
    raise. *)

val checkout : t -> Chunk.buf * int
(** [checkout t] is the current slab and the cursor to continue at
    (always < {!chunk_events}).  Marks the recording checked out.
    @raise Invalid_argument on a mapped, leased or released
    recording. *)

val seal_full : t -> Chunk.buf
(** Seal the current slab — the caller asserts it wrote all
    {!chunk_events} entries — and return the fresh current slab
    (write it from index 0). *)

val set_tail : t -> int -> unit
(** Publish the direct writer's cursor as the current slab's length so
    readers ({!length}, {!iter_chunks}, {!save}, …) see the tail.
    Idempotent; call whenever the recording must be consistent.
    @raise Invalid_argument outside [0, chunk_events). *)

val checkin : t -> int -> unit
(** End the direct writer's checkout: publish its cursor as
    {!set_tail} does, after which {!append} is accepted again.
    @raise Invalid_argument outside [0, chunk_events). *)

(** {1 In-memory access} *)

val iter_chunks : t -> (Chunk.buf -> int -> unit) -> unit
(** [iter_chunks t f] calls [f buf len] for each chunk in event
    order: a slab, or a slab wider than {!Chunk.default_chunk_events}
    (a mapped v3 file) cut into chunks of at most that many events, so
    a trace yields the same chunks whichever format it was loaded
    from.  Only [buf.(0..len-1)] is meaningful.  The buffers are
    the recording's own storage — do not mutate them.  On a recording
    that is no longer being appended to, concurrent iteration from
    several domains is safe. *)

val replay : t -> Trace.sink -> unit
(** Deliver the recorded events, in order, to a consumer. *)

val event : t -> int -> int * Trace.kind * Trace.phase
(** Random access to event [i] as [(byte_address, kind, phase)].
    @raise Invalid_argument when out of range. *)

val equal : t -> t -> bool
(** Event-stream equality: same length and the same packed event at
    every position (slab granularity may differ). *)

(** {1 Persistence} *)

val save : ?format:format -> t -> string -> unit
(** Write to a file; [format] defaults to {!V2}.  v2 layout: an 8-byte
    magic, a version byte, an 8-byte event count, then one
    varint-coded event each — the zigzag delta of the byte address
    from the previous event with kind and phase folded into the low
    bits of the first byte.  Sequential traces cost 1–2 bytes per
    event.  {!V3} writes a 24-byte header (magic; version 3; stride 8; event
    count) followed by the packed words verbatim, 8 LE bytes each —
    the layout {!load} can memory-map. *)

val saved_bytes : ?format:format -> t -> int
(** The size in bytes of the file {!save} would write, without writing
    it.  v3 is a fixed header plus 8 bytes per event; v2 runs the
    {!save} encoder into a byte counter, once per kept trace for all
    its leases. *)

val load : string -> t
(** Read a recording written by {!save}, in either format
    (distinguished by magic).  A v3 file on a little-endian host is
    memory-mapped and consumed zero-copy; the resulting recording is
    read-only (appends raise [Invalid_argument]) and aliases the file
    pages, so the file must outlive it.  Big-endian hosts and
    unmappable files fall back to a heap decode with full per-word
    validation.  Malformed input — wrong magic, bad version or stride,
    truncated or padded payload, event counts that disagree with the
    payload, corrupt kind bits, varint or address overflow, fixed-stride
    words that do not round-trip through the native int — fails
    cleanly, and every failure message names the format version and
    the byte offset of the fault.  A file of the retired v1 format is
    refused at byte 0 without being decoded.  Every format is read
    through one descriptor, closed before [load] returns or raises; a
    v3 load on a little-endian host makes five system calls: open, one
    read of the header, the [fstat] and [mmap] of [Unix.map_file],
    close.
    @raise Failure on a malformed file.
    @raise Sys_error when the file cannot be opened or read. *)

val load_unmapped : string -> t
(** {!load}, except that a v3 file is always decoded on the heap with
    the per-word audit, never mapped: the path big-endian hosts and
    unmappable files take, reachable on any host. *)
