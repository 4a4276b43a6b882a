(** The daemon's on-disk spool: event journal, content-addressed
    result cache, and per-job sweep checkpoints.

    Layout under the spool directory:
    - [journal.jsonl] — append-only event journal, flushed per event;
      after a crash at worst the final line is torn, and
      {!read_journal} skips it.
    - [results/<hash>.sexp] — one fixture per
      {!Golden.Manifest.content_hash}, written atomically.
    - [ckpt/job-<id>.ckpt] — the resumable sweep checkpoint of a
      running job. *)

type t

val create : string -> t
(** Open (creating directories and the journal as needed).  Safe to
    call on a spool left behind by a killed daemon. *)

val append : t -> Obs.Json.t -> unit
(** Append one event line to the journal and flush it.  Thread-safe. *)

val read_journal : string -> Obs.Json.t list
(** All parseable journal events of the spool at this directory, in
    write order.  Unparseable (torn) lines are skipped.  Reads the
    file directly — call before {!create} opens it for appending or on
    a quiesced store. *)

type stored = {
  fixture : Golden.Fixture.t;
  text : string;
      (** [Sexp.Datum.to_string (Golden.Fixture.to_datum fixture)],
          printed once when the result enters the index *)
}
(** A stored result as the daemon serves it. *)

val lookup : t -> string -> stored option
(** The stored result for a content hash, or [None] if it is absent
    or unreadable.  The store keeps an in-memory index from content
    hash to result: a hash in the index is answered from memory, with
    no file opened and nothing parsed.  Otherwise [lookup] reads and
    parses [results/<hash>.sexp] and, if that succeeds, indexes it (a
    result written by an earlier daemon on this spool enters the
    index on its first lookup; there is no start-up scan).  An absent
    or unparseable file is [None] and is not remembered, so a later
    {!put} or repaired file is found.  Stored results are immutable:
    once a hash is indexed, the file under it is not read again by
    this store, so replacing it on disk changes nothing until the
    next daemon.  The index has no eviction; it holds only results
    the spool already stores.  Thread-safe. *)

val put : t -> Golden.Fixture.t -> unit
(** Save a fixture under its run's content hash (atomic write), then
    index it.  A failed write raises and indexes nothing. *)

val checkpoint_path : t -> id:int -> string
val remove_checkpoint : t -> id:int -> unit

val close : t -> unit
