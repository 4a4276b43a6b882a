(** Simulated flat memory.

    One word-addressed off-heap buffer of simulated 4-byte words backs
    the whole vscheme address space — a private mapping of /dev/zero,
    so creating even a large memory costs no up-front zeroing and the
    OCaml GC never scans it.  Every traced access is reported with the
    current execution phase; the machine flips the phase to
    [Collector] around collections.

    Two trace paths exist.  The generic path delivers each event to
    the configured {!Memsim.Trace.sink} — one closure call per event,
    for hooks, analyzers and the differential-test oracle.  The {e fast path}
    ({!record_into}) appends the packed event straight into a
    {!Memsim.Recording} slab whose buffer and cursor are hoisted into
    this record: one array store per event, out of line only when a
    slab seals.  Both paths produce bit-identical traces; an untraced
    run (null sink, no recording) pays two predictable branches per
    access and makes no closure call.

    Addresses used throughout the runtime are {e word} addresses; the
    trace carries byte addresses ([word_addr * 4]) so that cache block
    arithmetic matches the paper's. *)

type t

val create : sink:Memsim.Trace.sink -> words:int -> t
(** [create ~sink ~words] is a zeroed memory of [words] simulated
    words.  Passing {!Memsim.Trace.null} (physically) marks the memory
    untraced. *)

val size_words : t -> int

val set_phase : t -> Memsim.Trace.phase -> unit

val record_into : t -> Memsim.Recording.t -> unit
(** Switch to direct recording: every subsequent traced access is
    appended to the recording through the checked-out slab, and the
    configured sink is no longer called.  The recording's existing
    tail is continued.  Call {!sync_recording} before reading the
    recording. *)

val sync_recording : t -> unit
(** Publish the direct writer's cursor (and the per-phase event
    counts) into the recording so that [length]/[iter_chunks]/[save]
    see every appended event.  No-op when not direct recording. *)

val finish_recording : t -> unit
(** {!sync_recording}, then leave direct recording for good: the memory
    drops its reference to the recording and its current slab, and
    later accesses are untraced.  {!recorded_position} and
    {!recorded_counts} keep their final values.  Call it before the
    recording can be released. *)

val recorded_position : t -> int
(** Number of events appended by the fast path so far — the index the
    {e next} traced access will occupy in the recording.  Exact without
    a {!sync_recording} (it reads the hoisted cursor).  0 when not
    direct recording.  Attribution side tables ({!Memsim.Attr}) stamp
    their entries with this position. *)

val recorded_counts : t -> int * int
(** [(mutator, collector)] events appended by the fast path, valid
    after {!sync_recording}, tracked at phase flips instead of per
    event.  The sink path's oracle counts the same split from the
    phase bits of its recording. *)

val read : t -> int -> int
(** Traced load of one word. *)

val write : t -> int -> int -> unit
(** Traced store of one word (mutation or stack/static traffic). *)

val write_alloc : t -> int -> int -> unit
(** Traced initializing store into a freshly allocated dynamic word;
    reported as {!Memsim.Trace.Alloc_write}. *)

val peek : t -> int -> int
(** Untraced load, for assertions, printers and tests. *)

val with_untraced : t -> (unit -> 'a) -> 'a
(** Run a computation with tracing suspended: accesses made inside it
    touch memory but emit no events (on either path).  Used for
    diagnostic printing so that debugging output does not perturb the
    experiment. *)
