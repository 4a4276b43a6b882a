(** Attribution side tables: who caused each cache event.

    A recording stores {e what} the memory system did; this module
    stores {e who} did it, compactly enough to ride the chunked
    hook-free sweep fast path.  Two position-indexed logs make up a
    {!table}:

    - {e region-map epochs} — the heap layout (static / stack /
      tospace / fromspace / free, as byte-address bounds) in force
      from a given event position onward, published by the heap at
      allocation-window changes and by the copying collector at
      collection boundaries;
    - {e allocation-site runs} — the interned site (bytecode closure,
      primitive, runtime) whose allocations own the events from a
      given position onward.

    Positions are event indices into the recording the table was
    captured alongside; both logs are monotone in position, so replay
    needs only a forward {!cursor}.  Tables persist as a sidecar file
    ({!save}/{!load}) next to a saved recording, keeping sweeps of
    saved traces attributable.

    The record types are exposed concretely: the per-event loop in
    {!Level.access_chunk_attr} reads the parallel arrays directly with
    [unsafe_get].  Treat the fields as read-only outside this module
    and {!Level}. *)

(** {1 Regions} *)

val num_regions : int
(** 5: static, stack, tospace, fromspace, free. *)

val region_static : int
val region_tospace : int
val region_fromspace : int

val region_name : int -> string
(** @raise Invalid_argument outside [0, num_regions). *)

(** {1 The side table} *)

type table = {
  mutable n_epochs : int;
  mutable epoch_pos : int array;
  mutable epoch_stack_lo : int array;   (** static is [0, stack_lo) *)
  mutable epoch_dyn_lo : int array;     (** stack is [stack_lo, dyn_lo) *)
  mutable epoch_to_lo : int array;
  mutable epoch_to_hi : int array;
  mutable epoch_from_lo : int array;
  mutable epoch_from_hi : int array;
  mutable n_runs : int;
  mutable run_pos : int array;
  mutable run_site : int array;
  mutable n_sites : int;
  mutable site_names : string array;
  site_ids : (string, int) Hashtbl.t;
  mutable sites_clipped : bool;
}
(** All bounds are byte addresses.  An address [a] classifies as
    static if [a < stack_lo], stack if [a < dyn_lo], tospace if within
    [to_lo, to_hi), fromspace if within [from_lo, from_hi), free
    otherwise. *)

val create : unit -> table
(** Fresh table with the single site ["(runtime)"] (id 0) and one
    site run covering position 0; no region epochs. *)

val publish_map :
  table ->
  pos:int ->
  stack_lo:int ->
  dynamic_lo:int ->
  to_lo:int ->
  to_hi:int ->
  from_lo:int ->
  from_hi:int ->
  unit
(** Append a region-map epoch in force from event position [pos].
    Publishing twice at the same position replaces the first map — the
    collector refines the window-derived map the heap publishes at the
    same boundary.  @raise Invalid_argument when [pos] regresses or
    the bounds are inverted. *)

val num_epochs : table -> int

val intern_site : table -> string -> int
(** The id for a site name, allocating one if needed.  The table is
    bounded: past {!max_sites} names every new name maps to the
    ["(overflow)"] bucket and {!sites_clipped} becomes true. *)

val max_sites : int

val runtime_site : int
(** Id 0, ["(runtime)"]. *)

val note_site : table -> pos:int -> int -> unit
(** Events from position [pos] onward belong to the given site.
    Consecutive notes of the same site coalesce; a second note at the
    same position replaces the first.  @raise Invalid_argument on an
    unknown site or a regressing position. *)

val num_runs : table -> int
val num_sites : table -> int

val site_name : table -> int -> string
(** @raise Invalid_argument on an unknown id. *)

val sites_clipped : table -> bool

(** {1 Persistence} *)

val save : table -> string -> unit
(** Write the sidecar (atomic: temp file + rename). *)

val load : string -> table
(** @raise Failure on a file that is not a well-formed sidecar. *)

(** {1 Profiles}

    The accumulator one attributed sweep fills for one cache.  The
    [refs] / [misses] / [alloc_misses] / [fetches] / [writebacks] /
    [writes] arrays have {!num_slots} entries indexed by
    [region * 2 + phase]; summed over slots each equals the
    corresponding aggregate {!Cache.stats} counter exactly (writebacks
    are attributed to the region of the {e evicted} block).  [heat]
    counts misses in a row-major [heat_rows * heat_cols] grid over
    (address bucket, event-index bucket); [region_time] counts misses
    per (event-index bucket, region), row-major with {!num_regions}
    columns. *)

type profile = {
  refs : int array;
  misses : int array;
  alloc_misses : int array;
  fetches : int array;
  writebacks : int array;
  writes : int array;
  site_alloc_misses : int array;  (** per site id *)
  site_alloc_writes : int array;  (** initializing stores per site id *)
  heat : int array;
  heat_rows : int;
  heat_cols : int;
  heat_row_shift : int;           (** address bucket = addr lsr shift *)
  heat_col_shift : int;           (** time bucket = event index lsr shift *)
  region_time : int array;
  mutable chunks_seen : int;
  mutable chunks_attributed : int;
  mutable events_attributed : int;
  sample_every : int;
}

val profile_create :
  ?sample_every:int ->
  num_sites:int ->
  addr_limit:int ->
  events:int ->
  unit ->
  profile
(** Zeroed profile sized for a table with [num_sites] sites, over a
    trace of [events] events addressing bytes below [addr_limit], with
    a 32x64 heat grid.  By default every chunk is attributed.
    @raise Invalid_argument on a sample rate below 1 or no sites. *)

(** {1 Replay cursor}

    Per-cache forward iterator over the table's two logs.  One cursor
    serves one cache for one pass over the recording; create a fresh
    one per cache (cursors are not shared across domains). *)

type cursor = {
  ctab : table;
  mutable ei : int;
  mutable si : int;
  mutable cur_site : int;
  mutable stack_lo : int;
  mutable dyn_lo : int;
  mutable to_lo : int;
  mutable to_hi : int;
  mutable from_lo : int;
  mutable from_hi : int;
}

val cursor : table -> cursor
(** Fresh cursor at position 0: before the first published epoch every
    address classifies as free, and the site is {!runtime_site}. *)
