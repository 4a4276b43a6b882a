(** Static verification of attribution sidecar files
    ({!Memsim.Attr.table}, the [.attr] companion of a saved trace)
    without replaying anything through a cache.

    [Attr.load] already rejects structural corruption (bad magic,
    truncation, non-monotone logs, out-of-range site ids) by raising;
    the scanner folds those into findings and then applies the
    semantic checks a structurally valid table can still fail.  Rules:

    - [attr.io] — the file could not be read;
    - [attr.format] — not a well-formed sidecar (magic, truncation,
      log order, site ids — whatever [Attr.load] rejected);
    - [attr.map-range] — an epoch's tospace or fromspace interval is
      non-empty yet starts below the dynamic area, so dynamic traffic
      would classify as static or stack;
    - [attr.events-bound] — an epoch or site-run position lies at or
      beyond the recording's event count (the map could never apply);
    - [attr.no-epochs] — warning: a table with no region epochs
      classifies every address as free;
    - [attr.sites-clipped] — warning: the site table overflowed at
      capture time and the ["(overflow)"] bucket aggregates the
      rest. *)

type result = {
  file : string;
  table : Memsim.Attr.table option;  (** [None] when loading failed *)
  findings : Finding.t list;
}

val scan : ?events:int -> string -> result
(** Load and verify one sidecar.  [events] is the event count of the
    recording the sidecar accompanies, when known; without it the
    [attr.events-bound] rule is skipped.  Never raises: I/O and format
    errors become findings. *)

val report : result -> Report.t
(** The ok summary counts the table's epochs, site runs and sites; no
    JSON fields besides the file and its findings. *)
