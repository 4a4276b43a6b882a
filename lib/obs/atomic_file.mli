(** Replace a file atomically: the one way every on-disk artifact of
    the repo (recordings, sidecars, checkpoints, fixtures, telemetry
    documents, tool outputs) is saved.

    The body writes a fresh temporary file beside the target, which is
    closed and then renamed over the target.  A reader therefore sees
    either the old file whole or the new one whole, and a save that
    fails at any point leaves the old file untouched and no temporary
    behind.  Renaming never writes into the old file: whoever still has
    it open or mapped keeps reading the old bytes, so a mapped v3
    recording may be saved onto its own path.

    A symbolic link is followed: the temporary sits beside the file
    the link leads to and is renamed onto that file, so the link stays
    a link.  A target that exists and is neither a regular file
    nor a directory (a device or a FIFO) is not replaced but written in
    place, through one channel; renaming over [/dev/full] would replace
    the device node. *)

val write : string -> (out_channel -> unit) -> unit
(** [write path body] runs [body] on a binary channel and puts what it
    wrote at [path].  The temporary file is created [O_EXCL] with
    permissions [0o666] less the umask, as [open_out] creates a file,
    so concurrent writers never share one and the saved file's mode
    is the one [open_out] gives.  The channel is closed on every path,
    and its final flush is checked.
    @raise Sys_error when the temporary file cannot be created,
    written, closed or renamed (a target that is a non-empty
    directory, say); the target is then unchanged.  Any exception of
    [body] is re-raised the same way. *)

val is_temp : string -> bool
(** Whether a file name is one that {!write} gives its temporary
    files: what a write cut short by a kill leaves behind. *)
