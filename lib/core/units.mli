(** Byte-size and collector-spec parsing shared by the CLI, golden
    manifests and experiment configs. *)

val parse_size : string -> (int, string) result
(** [parse_size "64k"] is [Ok 65536].  Accepts a run of decimal digits
    with an optional [k]/[K], [m]/[M] or [g]/[G] suffix (powers of
    1024).  Rejects zero, negative, malformed and overflowing sizes
    (the multiply is checked against [max_int]). *)

val parse_count : string -> (int, string) result
(** [parse_count " 2"] is [Ok 2]: a run of decimal digits, surrounding
    blanks trimmed, that reads as a positive native integer.  The one
    parser of [REPRO_SCALE], [REPRO_JOBS] and [--jobs]; the error
    quotes the string as given. *)

val format_size : int -> string
(** Inverse of {!parse_size} for exact multiples: ["64k"], ["2m"],
    else the plain decimal byte count. *)

val parse_gc : string -> (Vscheme.Machine.gc_spec, string) result
(** Parse a collector spec in the CLI's syntax: [none],
    [cheney:SIZE], [gen:NURSERY:OLD], [marksweep:NURSERY:OLD] (or
    [ms:NURSERY:OLD]). *)

val format_gc : Vscheme.Machine.gc_spec -> string
(** Inverse of {!parse_gc}; the result re-parses to the same spec. *)

val parse_hier : string -> (Memsim.Hier.cpu, string) result
(** Parse a hierarchy preset by its CPU label ([nhm], [ivb], [hsw],
    [skl], [cfl]); the error message lists the valid labels. *)

val format_hier : Memsim.Hier.cpu -> string
(** Inverse of {!parse_hier}; the result re-parses to the same cpu. *)
