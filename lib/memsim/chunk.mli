(** Flat batches of packed trace events.

    Per-event sinks ({!Trace.sink}) cost a closure dispatch per
    reference per consumer, which would dominate replaying one trace
    into a 40-configuration sweep.  A chunk is a flat buffer of
    packed events (the {!Recording} encoding: bits [63:3] byte address,
    [2:1] kind, [0] phase) that batched consumers such as
    {!Level.access_chunk} iterate with a tight decode loop instead.

    Buffers are off-heap int-kind Bigarrays: stores skip the OCaml
    write barrier, the GC never scans slab contents, and an mmap-backed
    v3 trace file is consumed through the same type with zero copies. *)

type buf = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
(** Packed events; only a prefix may be meaningful (paired with a
    length). *)

val default_chunk_events : int
(** Default events per chunk (65536; 512 KB per chunk). *)

(** {1 Buffers} *)

val create_buf : int -> buf
(** [create_buf n] is a zero-filled off-heap buffer of [n] events. *)

val create_buf_uninit : int -> buf
(** [create_buf_uninit n] is an off-heap buffer of [n] events whose
    contents are unspecified — for producers that track the written
    prefix and never read past it, skipping {!create_buf}'s zero-fill
    pass over the slab. *)

val empty : buf
(** The zero-length buffer. *)

val of_array : int array -> buf
(** Copy of an on-heap word array (test and bench convenience). *)

(** {1 Codec} *)

val pack : int -> Trace.kind -> Trace.phase -> int
(** [pack addr kind phase] packs one event into a native int.
    Addresses up to 60 bits are preserved. *)

val unpack : int -> int * Trace.kind * Trace.phase
(** Inverse of {!pack}.  @raise Failure on a corrupt kind code. *)

val addr : int -> int
(** Byte address of a packed event. *)

val kind_of_code : int -> Trace.kind
(** @raise Failure on codes outside 0–2. *)
