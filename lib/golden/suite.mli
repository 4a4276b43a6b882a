(** The golden suite driver behind [repro golden record|verify].

    A suite directory (conventionally [golden/] at the repo root)
    holds one [manifest.sexp] plus one [NAME.sexp] fixture per
    manifest run.  [record] regenerates everything from the current
    build; [verify] re-measures every run and diffs it against the
    committed fixtures — the deterministic signal the CI regression
    gate fails on. *)

val fixture_path : dir:string -> string -> string

type verification = {
  run : Manifest.run;
  fixture : string;                 (** the fixture file compared against *)
  expected : Fixture.t option;      (** [None]: missing/unreadable fixture *)
  actual : Fixture.t option;        (** [None]: the measurement crashed *)
  findings : Check.Finding.t list;
}

val passed : verification -> bool

val report : verification -> Check.Report.t
(** The run's outcome for {!Check.Report}: the fixture file, an ok
    summary of the events and caches pinned, and the JSON fields
    ["run"] (the manifest name) and ["passed"]. *)

val record : ?manifest:Manifest.t -> dir:string -> Format.formatter -> unit
(** Measure every run of the manifest (default {!Manifest.default})
    and write the manifest and all fixtures into [dir], creating it if
    needed.  Progress is narrated on the formatter. *)

val verify : dir:string -> Format.formatter -> verification list
(** Load the committed manifest from [dir], re-measure every run, and
    compare.  Never raises: a missing manifest or fixture, a crashed
    measurement, and every mismatch all become error findings on the
    returned verifications.  Findings are printed on the formatter as
    they are found. *)

val summary_markdown : Format.formatter -> verification list -> unit
(** A GitHub-flavoured Markdown table of per-run outcomes with
    expected-vs-actual deltas — written to the Actions job summary so
    perf movement is visible without downloading artifacts. *)
