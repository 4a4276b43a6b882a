(** Incremental JSONL writer: one JSON value per line, buffered and
    flushed to the underlying channel in bounded batches, so dumping a
    large timeline never materializes the whole file in memory (the
    eager [to_jsonl_string] path allocates the full encoding before the
    first byte reaches disk).

    A writer borrows the caller's channel: {!close} flushes without
    closing it, so the caller keeps interleaving its own output. *)

type t

val to_channel : ?batch_bytes:int -> out_channel -> t
(** Write through a caller-owned channel.  [batch_bytes] bounds the
    internal buffer: once a written line pushes the buffer past it,
    the batch is flushed to the channel.  Default 64 KiB.

    @raise Invalid_argument if [batch_bytes <= 0] *)

val write : t -> Json.t -> unit
(** Append one value as a single line (compact encoding plus
    newline).  @raise Invalid_argument on a closed writer. *)

val flush : t -> unit
(** Force the current batch out to the channel. *)

val close : t -> unit
(** Flush and release; the channel stays open.  Idempotent. *)
