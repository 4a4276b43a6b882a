(** Static verification of sweep checkpoint files
    ({!Memsim.Sweep.hier_run_resumable} checkpoints, grids' included)
    without restoring them into live caches.

    Unlike [Sweep.load_hier_checkpoint], which needs the matching
    hierarchies already built and raises on the first problem, this
    scanner works
    from the file alone: the snapshot bodies are self-describing (each
    carries its geometry), so the walk recomputes every body length
    and collects byte-located {!Finding.t}s instead of raising.
    Rules:

    - [ckpt.io] — the file could not be read;
    - [ckpt.magic] — not a checkpoint ("SWHCKPT1") at all;
    - [ckpt.retired] — a grid checkpoint in the retired "SWPCKPT1"
      format, reported once at byte 0 without walking its bodies;
    - [ckpt.truncated] — short header, or a body that ends inside a
      snapshot the header said should be there;
    - [ckpt.header] — negative cursor / event / snapshot counts, or a
      cursor past the event count;
    - [ckpt.events] — header event count disagrees with the recording
      the checkpoint is being checked against (only with [?events]);
    - [ckpt.snapshot-magic] — a snapshot body does not start with the
      hierarchy / level magic the file format promises;
    - [ckpt.geometry] — a snapshot's geometry words describe a cache
      no constructor would accept (sizes not powers of two, blocks
      wider than 64 words, way counts out of 1..32, unknown policy or
      flag codes);
    - [ckpt.word] — a snapshot word that does not fit a native int
      (bit 63 set, as [Level.restore] refuses);
    - [ckpt.counter] — a negative event counter;
    - [ckpt.state] — a line whose valid-word mask has bits beyond the
      block width, a dirty byte that is neither 0 nor 1, a tag below
      the -1 invalid marker, a valid tag filed in a set its low bits
      do not index, or a block resident in two ways of one set; each
      located at the offending word or byte;
    - [ckpt.trailing-bytes] — bytes after the last declared snapshot;
    - [ckpt.suppressed] — warning noting findings beyond the cap. *)

type kind =
  | Grid  (** retired "SWPCKPT1" grid checkpoint; only recognised *)
  | Hier  (** checkpoint with one {!Memsim.Hier} snapshot per cell *)

type result = {
  file : string;
  kind : kind option;           (** [None] when the magic is unknown *)
  cursor : int option;          (** replay cursor, if the header was readable *)
  events : int option;          (** recording event count the header pins *)
  snapshots : int;              (** snapshot bodies actually walked *)
  findings : Finding.t list;
}

val scan : ?events:int -> string -> result
(** Read and verify one checkpoint file.  [?events] cross-checks the
    header against the event count of the recording being swept.
    Never raises: I/O errors become [ckpt.io] findings. *)

val report : result -> Report.t
(** The ok summary names the kind, snapshot count and cursor; the JSON
    fields are ["kind"], ["cursor"], ["events"] (each when known) and
    ["snapshots"]. *)
