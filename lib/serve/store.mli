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

val lookup : t -> string -> Golden.Fixture.t option
(** The cached fixture for a content hash, or [None] if absent or
    unreadable. *)

val put : t -> Golden.Fixture.t -> unit
(** Save a fixture under its run's content hash (atomic write). *)

val checkpoint_path : t -> id:int -> string
val remove_checkpoint : t -> id:int -> unit

val close : t -> unit
