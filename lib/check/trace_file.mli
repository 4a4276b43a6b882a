(** Static verification of recorded trace files ({!Memsim.Recording}
    v1, v2 and v3) without sweeping them through a cache.

    Unlike [Recording.load], which raises on the first problem, the
    scanner collects {!Finding.t}s with byte offsets and event indices
    and keeps decoding where the format permits: a corrupt kind tag is
    recoverable in both formats, while a varint overflow or a
    truncation ends the scan.  Rules:

    - [trace.io] — the file could not be read;
    - [trace.magic] — not a recording at all;
    - [trace.version] — v2/v3 magic but an unknown version byte;
    - [trace.stride] — v3 header declares an event stride other than 8;
    - [trace.truncated] — short header, partial v1/v3 word, or a v2
      file ending mid-event;
    - [trace.header-count] — negative declared event count;
    - [trace.declared-count] — v1/v3 payload disagrees with the header;
    - [trace.word-width] — v1/v3 word does not fit a 63-bit native int
      (for v3 this scanner is the only deep check: the mmap loader's
      int-kind view cannot observe bit 63);
    - [trace.kind-bits] — event carries the invalid kind code 3;
    - [trace.varint] — v2 varint continues past 63 bits;
    - [trace.address-range] — v2 delta chain leaves [0, 2^60);
    - [trace.trailing-bytes] — bytes after the declared events;
    - [trace.suppressed] — warning noting findings beyond the cap. *)

type format =
  | V1
  | V2
  | V3

type result = {
  file : string;
  format : format option;          (** [None] when the magic is unknown *)
  declared_events : int option;    (** header event count, if readable *)
  recording : Memsim.Recording.t option;
      (** the decoded events (possibly partial after an unrecoverable
          finding); run {!Stream_check.check} over it only when
          [findings] has no errors *)
  findings : Finding.t list;
}

val scan : string -> result
(** Read and verify one trace file.  Never raises: I/O errors become
    [trace.io] findings. *)

val check :
  geometry:Stream_check.geometry option ->
  expect:Stream_check.expect ->
  string ->
  Report.t * int option
(** {!scan} one file and, when it decodes without errors, run
    {!Stream_check.check} over the events.  The report's ok summary
    names the format and the stream tallies; its JSON fields are
    ["format"] and ["summary"].  Also returns the number of events
    decoded (possibly a partial count), [None] when nothing decoded. *)
